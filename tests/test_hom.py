"""Hom spaces: the sweep against the dense oracle on the vertices it skips
or short-cuts, and the sha256 of every basis on a fixed corpus.

The digests pin the basis itself, not just its span: decompose picks its
idempotents from the End basis, so a different basis would change the
CLI output.  They were computed with the per-vertex sweep that visited
every grid vertex; any rewrite must reproduce them byte for byte.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from gridpersist import field
from gridpersist.cli import random_module
from gridpersist.construct import approximate_indecomposable
from gridpersist.core import (Grid, GridModule, hom_space,
                              random_basis_change)
from gridpersist.kan import common_refinement, compress

from conftest import rect
from oracles import gauss_rank, hom_basis

P = 65521
S = [[1, 2], [0, 1]]     # invertible, not the identity
I2 = [[1, 0], [0, 1]]


def module(dims, steps, p=P):
    """A module on the integer grid of dims' shape; steps[(v, k)] rows."""
    dims = np.array(dims, dtype=np.int64)
    grid = Grid([[Fraction(i) for i in range(s)] for s in dims.shape])
    M = GridModule(grid, dims, {(v, k): field.fmat(m, p).reshape(
        int(dims[tuple(v[j] + (j == k) for j in range(len(v)))]),
        int(dims[v])) for (v, k), m in steps.items()}, p)
    assert M.validate()
    return M


def square(d, step0, step1):
    """A 2 x 2 grid of dimension d everywhere, with one step matrix per
    axis at every edge."""
    return module([[d, d], [d, d]], {
        ((0, 0), 0): step0, ((0, 1), 0): step0,
        ((0, 0), 1): step1, ((1, 0), 1): step1})


def vee(d):
    """Dimension d at (1,0), (0,1) and (1,1), identity steps into (1,1):
    two identity predecessors with independent values."""
    eye = np.eye(d, dtype=np.int64).tolist()
    return module([[0, d], [d, d]], {((0, 1), 0): eye, ((1, 0), 1): eye})


def edge_cases():
    """(name, M, N) pairs that exercise each branch of the sweep."""
    one = module([[1, 0], [0, 0]], {})
    out = [
        # N lives where M is zero, right after a vertex with unknowns: a
        # constraint without unknowns, which kills f there (empty Hom) or
        # cuts it down to the kernel of the N step
        ("n_after_live_identity", one,
         module([[1, 0], [1, 0]], {((0, 0), 0): [[1]]})),
        ("n_after_live_kernel", one,
         module([[2, 0], [1, 0]], {((0, 0), 0): [[1, 0]]})),
        ("n_after_live_then_m", module([[1, 0], [0, 0], [1, 0]], {}),
         module([[1, 0], [1, 0], [1, 0]],
                {((0, 0), 0): [[1]], ((1, 0), 0): [[1]]})),
        # identity in M but not in N along axis 0, and the reverse
        ("ident_m_not_n", square(2, I2, I2), square(2, S, I2)),
        ("ident_n_not_m", square(2, S, I2), square(2, I2, I2)),
        ("ident_m_not_n_1d", square(1, [[1]], [[1]]),
         square(1, [[3]], [[1]])),
        ("ident_n_not_m_1d", square(1, [[3]], [[1]]),
         square(1, [[1]], [[1]])),
        ("rank_drop", module([[2, 0], [1, 0]], {((0, 0), 0): [[1, 1]]}),
         module([[1, 0], [2, 0]], {((0, 0), 0): [[1], [3]]})),
        # two identity predecessors that disagree: a constraint event
        ("vee_1", vee(1), vee(1)),
        ("vee_2", vee(2), vee(2)),
        ("vee_into_square", vee(2), square(2, S, I2)),
        # empty Hom: disjoint supports, and an interval into one that
        # starts later; the reverse of the latter is one-dimensional
        ("empty_disjoint", *common_refinement(rect((1, 1), (2, 2)),
                                              rect((0, 0), (1, 1)))[:2]),
        ("empty_earlier_into_later", *common_refinement(
            rect((0, 0), (2, 2)), rect((1, 0), (3, 2)))[:2]),
        ("later_into_earlier", *common_refinement(
            rect((1, 0), (3, 2)), rect((0, 0), (2, 2)))[:2]),
    ]
    for n, size in ((3, 2), (3, 3), (4, 2)):
        for s in range(3):
            M, N, _ = common_refinement(random_module(n, size, 2, seed=s),
                                        random_module(n, size, 2, seed=40 + s))
            out.append((f"n{n}_size{size}_seed{s}", M, N))
            out.append((f"n{n}_size{size}_end{s}", M, M))
    for s in range(3):
        M, N, _ = common_refinement(random_module(2, 3, 2, seed=s, p=3),
                                    random_module(2, 3, 2, seed=60 + s, p=3))
        out.append((f"p3_seed{s}", M, N))
    return out


def random_pairs():
    """Random pairs on common refinements, with and without a basis
    change, and their End."""
    out = []
    for s in range(4):
        M, N, _ = common_refinement(random_module(2, 3, 2, seed=s),
                                    random_module(2, 3, 2, seed=50 + s))
        out += [(f"pair{s}", M, N),
                (f"pair{s}_changed", random_basis_change(M, s),
                 random_basis_change(N, 100 + s)),
                (f"end{s}_changed", M, random_basis_change(M, 200 + s))]
    M, N, _ = common_refinement(random_module(2, 4, 3, seed=7),
                                random_module(2, 4, 3, seed=8))
    out += [("pair_4x3", M, N), ("end_4x3", M, M)]
    return out


def fold_outputs():
    """End of the compressed fold output of approximate_indecomposable on
    the three approx benchmark bases and two acceptance-3 seeds."""
    out = []
    for name, n, size, dim, seed in (
            ("approx4", 2, 3, 2, 4), ("approx11", 2, 3, 2, 11),
            ("approx20", 2, 3, 2, 20), ("acc3_seed0", 2, 4, 3, 0),
            ("acc3_seed8", 2, 4, 3, 8)):
        C = compress(approximate_indecomposable(
            random_module(n, size, dim, seed=seed), Fraction(1, 2)).module)
        out.append((name, C, C))
    return out


def basis_digest(basis) -> str:
    """sha256 of the basis: each element's nonzero components, vertex by
    vertex in sorted order, elements in basis order."""
    h = hashlib.sha256()
    for f in basis:
        h.update(b"|")
        for v in sorted(f.mats):
            m = np.ascontiguousarray(f.mats[v], dtype=np.int64)
            if m.any():
                h.update(repr((tuple(map(int, v)), m.shape)).encode())
                h.update(m.tobytes())
    return h.hexdigest()


def flat(f):
    """f in the oracle's unknown layout: every vertex in C order, each
    component row-major."""
    return [int(x) for v in np.ndindex(f.source.dims.shape)
            for x in f.at(v).ravel()]


@pytest.mark.parametrize("name,M,N", edge_cases(),
                         ids=[c[0] for c in edge_cases()])
def test_hom_space_spans_the_oracle_hom(name, M, N):
    basis = hom_space(M, N)
    want = [r for r in hom_basis(M, N) if any(r)]
    assert len(basis) == len(want)
    for f in basis:
        assert f.is_valid()
    if basis:
        # the oracle's basis and ours together span no more than either
        got = [flat(f) for f in basis]
        assert gauss_rank(got, M.p) == len(got) == gauss_rank(got + want, M.p)


def test_hom_edge_cases_have_the_expected_dimensions():
    dims = {name: len(hom_space(M, N)) for name, M, N in edge_cases()}
    assert dims["n_after_live_identity"] == 0
    assert dims["n_after_live_kernel"] == 1
    assert dims["n_after_live_then_m"] == 1
    assert dims["vee_1"] == 1 and dims["vee_2"] == 4
    assert dims["empty_disjoint"] == dims["empty_earlier_into_later"] == 0
    assert dims["later_into_earlier"] == 1


HOM_DIGESTS = {
    'n_after_live_identity':  # dim 0
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'n_after_live_kernel':  # dim 1
        'f20643c7d5f99d3e0105a7f488f59647358a2b0a6876bd1dcafbeb9c5e5e9d01',
    'n_after_live_then_m':  # dim 1
        '66d8d86a6ef89df350fb0bb9a0b13e9b028d3d9c4163638a604da403f32d5727',
    'ident_m_not_n':  # dim 4
        'b98d02a355f57e4de640486aa062c4a371ecd286239ec9397aa62eae7f99ab0e',
    'ident_n_not_m':  # dim 4
        'af10d32bba5f936d551c2bd3931f26e051157f9de3d65c305dd17be73eb2aed9',
    'ident_m_not_n_1d':  # dim 1
        '6016c835e50897bf2a7fb6d97246274d7e94afd426077cd15a2a2c4c73995d3f',
    'ident_n_not_m_1d':  # dim 1
        'db9d676eed1171d90ae9d6e41534cdbc5954a7e99d877951f9a70bf0d2bd8252',
    'rank_drop':  # dim 1
        '6478ee8c9ef14f6202aac6535051d46c35460429136e1376a65b1449d7beccd3',
    'vee_1':  # dim 1
        'dd3c4ee1650d57e2746b7400202bf17b596899f64ef7aaddb9f2137d2e3f82db',
    'vee_2':  # dim 4
        '1ec85fb90f2715b80444128ecae4a9db779e287b3171b2cfbcaef833ecb1a767',
    'vee_into_square':  # dim 4
        '43501fe962c115e63e13b0f8d2e07c8a4aab87d3629975cdf5698503c35f818a',
    'empty_disjoint':  # dim 0
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'empty_earlier_into_later':  # dim 0
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'later_into_earlier':  # dim 1
        '576aed3223b526e5f9b443cc944b015dd94fa70b76fc546ab10320c6e9dad9e4',
    'n3_size2_seed0':  # dim 4
        'f57cefe6c9cd4e70ba92032879699d5b31f5e9331a815cfbe3507113e172cd3b',
    'n3_size2_end0':  # dim 7
        'd207f04ea5876daadb59f875b165de8801f3f0fa063bf18872cc6d26e1ef7d9c',
    'n3_size2_seed1':  # dim 2
        '638129ae9345fcb465cc9f7c4e886402e42ec92042e434a1cb057da41b4150d8',
    'n3_size2_end1':  # dim 4
        '62a66ebd1956c6a62f5032baa7cd728d04f86109ee2d3cd0f8b458852c5f447b',
    'n3_size2_seed2':  # dim 0
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'n3_size2_end2':  # dim 4
        'cc93391729e96f212eabe5ca89b112d11348b999851e49db751551402a7bf575',
    'n3_size3_seed0':  # dim 9
        '43c30e846e30197781ba60060410ef52492e56a4bd29fdb5f8c2134c57d401a7',
    'n3_size3_end0':  # dim 17
        'e80fd85e54b1474f56a48ef70370c805722ab1038d8123062cd92dcdec174791',
    'n3_size3_seed1':  # dim 9
        '165213d7a9da2343ca51776fc763fd7bc92abaf8b8e6d4290ddc3c105f53936f',
    'n3_size3_end1':  # dim 12
        '870231cd87072a231f7470c2d3a4f26038ebf5ccbac94083ae7f5c145dc944d4',
    'n3_size3_seed2':  # dim 6
        'cd93e2bc207ff97ab4f79b407bb4cc49875405548f1c6a2af2b98c972d688bf7',
    'n3_size3_end2':  # dim 16
        'f198ac1ed072f8c6f86167e98e138ae828d43ff88a20cca9533749ca9bca8053',
    'n4_size2_seed0':  # dim 8
        'a17c0a8eda6dca535087b283d8b1b9d1ec2c37c01abbd8bd76ad481071b1b35c',
    'n4_size2_end0':  # dim 10
        '629af15fd6b6a20723ec73d7f0d9d048868b6889c721ef3257dbb3bce2390dab',
    'n4_size2_seed1':  # dim 1
        'a66c3ba018e904a5b75a133d6cf0f96dbda20e72787147c962e3439bc2961f2a',
    'n4_size2_end1':  # dim 7
        '426f72b9b875af193e1ed4dc64fdda90110cc5b0af0832685c04f7db493cbcb3',
    'n4_size2_seed2':  # dim 4
        'b40ae3bb0fa69edb9804fb9d07527b3541c4bb70f929741833eb36ac649fd665',
    'n4_size2_end2':  # dim 9
        'bf19edfc7007866a4bc313dda092a81f17ea32a750c0af184485245392d1c8ce',
    'p3_seed0':  # dim 4
        '8ed5d5867c25fb40b23172ff9412aaf52f21c268f3fd35a1f706f8b5a36a8114',
    'p3_seed1':  # dim 3
        '34380068ba1b59fb4975af1ba0de55adb5fbb50f037597eae158357a53d9f8a4',
    'p3_seed2':  # dim 2
        'df4bec8cbaa629634e3fbfc3eeded06a07d247542843c9ac0067d394df77f407',
    'pair0':  # dim 4
        '8ed5d5867c25fb40b23172ff9412aaf52f21c268f3fd35a1f706f8b5a36a8114',
    'pair0_changed':  # dim 4
        '8ed5d5867c25fb40b23172ff9412aaf52f21c268f3fd35a1f706f8b5a36a8114',
    'end0_changed':  # dim 6
        'f4bd0b283c6cba6590d5b0f5b9f516cbd152e74dbddf94ec4a2198555d88c6d8',
    'pair1':  # dim 2
        'eab3eb25b27c88fd5be1034edf130280717c442e89e151dd2e2ae29f8360384c',
    'pair1_changed':  # dim 2
        '9cc8b129800327251bb02ace43220fe4ea569d25f1dd93ec2efd70c7d5cde6c1',
    'end1_changed':  # dim 7
        '8e32a91219caa7c680489aa0b02526b516f7661a3b19c029ef16d2d4dde78daf',
    'pair2':  # dim 2
        '525b43a6333eec6eb4130d9ccbb9cea5658985c7331507164ae219e4e3b7869f',
    'pair2_changed':  # dim 2
        '525b43a6333eec6eb4130d9ccbb9cea5658985c7331507164ae219e4e3b7869f',
    'end2_changed':  # dim 7
        'fa1e49df9c5051bf90baf8e2bef24253d2b5fce06a2dabddea081358d73add0a',
    'pair3':  # dim 0
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'pair3_changed':  # dim 0
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'end3_changed':  # dim 11
        'c7d26f0c8a9bdbd95184961e1dbe8420ae210786316be43fb7b1f54b6ce1e591',
    'pair_4x3':  # dim 4
        'a0b8005f9915248d82b9b6ba325921590307e0f389d09c868e45f60c7c6ace67',
    'end_4x3':  # dim 18
        '36750d3eb83dda45713c8380cf7ece0b140353435dfad6681dbbfbee00370c2c',
    'approx4':  # dim 3
        'dfa620c6fd714b646322ed9df35a3208fee71537fd25a7c3bcd020d2f808b936',
    'approx11':  # dim 2
        'b2bc0ea8f9980e7b5671fc6e5112f75326ab9da2e457aca1ca7242739508e6dc',
    'approx20':  # dim 1
        'f0dca22bf12162753e1b45b32bb85ffae9afe3d5b4c23a9af603a437c7f06452',
    'acc3_seed0':  # dim 11
        '31ae485e5890b57ed853c9a4367b0c35a27f1f96237eb51e3dd61b4408f31cd2',
    'acc3_seed8':  # dim 4
        '957a4eb12808414676b72a85508d275ecc4dd0d58fb8dce4b2cd65b63ccece6f',
}


def test_hom_space_basis_is_pinned():
    got = {name: basis_digest(hom_space(M, N))
           for name, M, N in edge_cases() + random_pairs() + fold_outputs()}
    assert got == HOM_DIGESTS
