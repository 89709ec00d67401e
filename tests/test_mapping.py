import numpy as np
import pytest
from conftest import longdouble_jacobian, memory_layouts, sample_sphere

from cmsphere import mapping
from cmsphere.errors import ZeroVector
from cmsphere.evolve import CMConfig, run
from cmsphere.fields import get_flow
from cmsphere.geom import area_form, rotation_matrix, vertex_frames
from cmsphere.mapping import MapChain, SphereMap, load_chain, save_chain
from cmsphere.mesh import build_icosahedral, locate_batch
from cmsphere.spline import MacroSpline


@pytest.fixture(scope="module")
def mesh():
    return build_icosahedral(3)


@pytest.fixture(scope="module")
def points():
    return sample_sphere(20000, seed=1)


def linear_map(mesh, mat):
    """Interpolant of p -> mat p; rows of the Hermite data follow from
    the map acting on the frame vectors."""
    return SphereMap.from_hermite(mesh, mesh.vertices @ mat.T, mesh.g1 @ mat.T, mesh.g2 @ mat.T)


def test_identity_map_is_close_but_inexact(mesh, points):
    # the components x, y, z are odd functions, so they sit outside the
    # even quadratic space; the interpolant is only O(h^3) close
    ident = linear_map(mesh, np.eye(3))
    err = np.linalg.norm(ident.eval(points) - points, axis=1)
    assert 0.0 < err.max() < 5e-4
    dets = MapChain(mesh=mesh, maps=[ident]).eval_with_jacobian(points)[1]
    assert np.abs(dets - 1.0).max() < 0.02


def test_rotation_chain_composes(mesh, points):
    r1 = rotation_matrix(np.array([0.0, 0.0, 1.0]), 0.7)
    r2 = rotation_matrix(np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0), -1.2)
    chain = MapChain(
        mesh=mesh,
        maps=[linear_map(mesh, r1), linear_map(mesh, r2)],
        breaks=[0.0, 0.5, 1.0],
    )
    exact = points @ r2.T @ r1.T
    assert np.linalg.norm(chain.eval(points) - exact, axis=1).max() < 5e-4
    out, dets = chain.eval_with_jacobian(points)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-13
    assert np.abs(dets - 1.0).max() < 0.05


def test_reflection_flips_jacobian_sign(mesh, points):
    n = np.array([0.3, -0.5, 0.8])
    n /= np.linalg.norm(n)
    refl = linear_map(mesh, np.eye(3) - 2.0 * np.outer(n, n))
    dets = MapChain(mesh=mesh, maps=[refl]).eval_with_jacobian(points)[1]
    assert np.abs(dets + 1.0).max() < 0.02


def test_empty_chain_is_exact_identity(mesh, points):
    chain = MapChain(mesh=mesh)
    assert chain.n_submaps == 0
    out = chain.eval(points)
    assert np.array_equal(out, points)
    out, dets = chain.eval_with_jacobian(points)
    assert np.array_equal(dets, np.ones(len(points)))
    tang = np.zeros((len(points), 1, 3))
    outp, pushed = chain.jet(points, tang)
    assert np.array_equal(outp, points)
    assert np.array_equal(pushed, tang)


def test_jet_matches_differential_composition(mesh, points):
    r1 = rotation_matrix(np.array([0.0, 1.0, 0.0]), 0.4)
    r2 = rotation_matrix(np.array([1.0, 0.0, 0.0]), -0.9)
    chain = MapChain(mesh=mesh, maps=[linear_map(mesh, r1), linear_map(mesh, r2)])
    p = points[:200]
    rng = np.random.default_rng(5)
    tang = rng.standard_normal((200, 2, 3))
    tang -= np.einsum("nqj,nj->nq", tang, p)[..., None] * p[:, None, :]
    outp, pushed = chain.jet(p, tang)
    mid, step = MapChain(mesh=mesh, maps=[chain.maps[1]]).jet(p, tang)
    _, manual = MapChain(mesh=mesh, maps=[chain.maps[0]]).jet(mid, step)
    assert np.abs(pushed - manual).max() < 1e-13
    assert np.abs(np.einsum("nqj,nj->nq", pushed, outp)).max() < 1e-12


def test_entry_points_share_one_walk(mesh, points):
    # points agree bit for bit across eval, eval_with_jacobian and jet, and
    # the closed-form determinant is the area form of the frames pushed
    # through jet up to rounding
    r1 = rotation_matrix(np.array([0.0, 1.0, 0.0]), 0.4)
    r2 = rotation_matrix(np.array([1.0, 0.0, 0.0]), -0.9)
    chain = MapChain(mesh=mesh, maps=[linear_map(mesh, r1), linear_map(mesh, r2)])
    out, pushed = chain.jet(points, np.stack(vertex_frames(points), axis=1))
    x, dets = chain.eval_with_jacobian(points)
    assert np.array_equal(chain.eval(points), out)
    assert np.array_equal(x, out)
    assert np.abs(dets - area_form(out, pushed)).max() < 1e-13
    oa, ob = vertex_frames(out)
    m = np.einsum("nqj,nrj->nqr", pushed, np.stack([oa, ob], axis=1))
    assert np.abs(dets - np.linalg.det(m)).max() < 1e-13


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is float64 here, so the oracle has no extra precision")
@pytest.mark.parametrize("name, level, n_steps, stride, n_submaps", [
    ("deformational", 4, 20, 0, 1),
    ("moving_vortex", 4, 50, 5, 10),
])
def test_jacobian_matches_extended_precision(name, level, n_steps, stride, n_submaps):
    # The closed-form determinant against the frame walk done in extended
    # precision: within 2e-13 relative, and no further off than the
    # float64 frame walk that jet and area_form still carry, give or take
    # a factor of 1.5. Skipped where np.longdouble carries no more bits
    # than float64 (arm64 macOS, Windows), since the oracle would round
    # as the code under test does.
    flow = get_flow(name)
    chain = run(flow.velocity, CMConfig(level=level, n_steps=n_steps, t_final=flow.T,
                                        remap_stride=stride))
    assert chain.n_submaps == n_submaps
    p = sample_sphere(2**15, seed=3)
    want = longdouble_jacobian(chain, p)
    frames = area_form(*chain.jet(p, np.stack(vertex_frames(p), axis=1)))
    err, frame_err = (float(np.max(np.abs(d - want) / np.abs(want)))
                      for d in (chain.eval_with_jacobian(p)[1], frames))
    assert err <= 2e-13
    assert err <= 1.5 * frame_err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_raise(mesh, bad):
    # location would place such a point in an arbitrary triangle; every
    # entry point refuses it, on an empty chain too
    r = rotation_matrix(np.array([0.0, 0.0, 1.0]), 0.3)
    p = np.array([[0.0, 0.0, 1.0], [bad, 0.0, 1.0]])
    for chain in (MapChain(mesh=mesh), MapChain(mesh=mesh, maps=[linear_map(mesh, r)] * 2)):
        for call in (chain.eval, chain.eval_with_jacobian,
                     lambda q: chain.jet(q, np.zeros((2, 1, 3)))):
            with pytest.raises(ValueError, match="finite"):
                call(p)


def test_results_do_not_depend_on_memory_order(mesh, points):
    # location's einsums sum a Fortran-ordered or strided operand in another
    # order, so points are made C-contiguous before they reach them; the
    # Jacobian path sums its columns in einsum's order on any layout
    flow = get_flow("moving_vortex")
    chain = run(flow.velocity, CMConfig(level=3, n_steps=20, t_final=flow.T, remap_stride=5))
    tang = np.random.default_rng(9).standard_normal((len(points), 2, 3))
    want = (locate_batch(mesh, points), chain.eval(points), chain.eval_with_jacobian(points),
            chain.jet(points, tang))
    for p in memory_layouts(points)[1:]:
        got = locate_batch(mesh, p), chain.eval(p), chain.eval_with_jacobian(p), chain.jet(p, tang)
        for a, b in zip(got[0] + got[2] + got[3], want[0] + want[2] + want[3]):
            assert np.array_equal(a, b)
        assert np.array_equal(got[1], want[1])
    for t in memory_layouts(tang)[1:]:
        for a, b in zip(chain.jet(points, t), want[3]):
            assert np.array_equal(a, b)


def test_collapsed_value_raises(mesh):
    degenerate = SphereMap(
        MacroSpline(mesh, np.zeros((mesh.n_triangles, 19, 3)))
    )
    with pytest.raises(ZeroVector):
        degenerate.eval(np.array([[1.0, 0.0, 0.0]]))
    chain = MapChain(mesh=mesh, maps=[degenerate])
    with pytest.raises(ZeroVector):
        chain.eval_with_jacobian(np.array([[1.0, 0.0, 0.0]]))


def test_save_load_roundtrip(tmp_path, mesh, points):
    r = rotation_matrix(np.array([0.0, 0.0, 1.0]), 1.1)
    chain = MapChain(
        mesh=mesh,
        maps=[linear_map(mesh, np.eye(3)), linear_map(mesh, r)],
        breaks=[0.0, 0.5, 1.0],
    )
    path = tmp_path / "chain.npz"
    save_chain(chain, path)
    back = load_chain(path)
    assert back.mesh.level == mesh.level
    assert back.breaks == chain.breaks
    assert back.n_submaps == 2
    for orig, copy in zip(chain.maps, back.maps):
        assert np.array_equal(orig.spline.coeffs, copy.spline.coeffs)
    assert np.array_equal(back.eval(points), chain.eval(points))


def test_save_writes_the_named_path(tmp_path, mesh, points):
    # numpy appends .npz to a bare path; the chain file must not move
    chain = MapChain(mesh=mesh, maps=[linear_map(mesh, np.eye(3))], breaks=[0.0, 1.0])
    path = tmp_path / "chain"
    save_chain(chain, str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain"]
    assert np.array_equal(load_chain(str(path)).eval(points), chain.eval(points))


def test_save_load_empty_chain(tmp_path, mesh):
    path = tmp_path / "empty.npz"
    save_chain(MapChain(mesh=mesh), path)
    back = load_chain(path, mesh=mesh)
    assert back.n_submaps == 0
    assert back.breaks == [0.0]


def test_save_rejects_identity_chain_without_mesh(tmp_path):
    # MapChain(mesh=None) is a valid identity for evaluation, but a chain
    # file needs a refinement level; nothing is written
    path = tmp_path / "identity.npz"
    with pytest.raises(ValueError, match="mesh"):
        save_chain(MapChain(mesh=None), path)
    assert not path.exists()


def test_load_rejects_mismatched_mesh(tmp_path, mesh):
    path = tmp_path / "chain.npz"
    save_chain(MapChain(mesh=mesh), path)
    with pytest.raises(ValueError):
        load_chain(path, mesh=build_icosahedral(2))


@pytest.mark.parametrize(
    "n_coeffs, breaks",
    [
        ((87, 19, 3), [0.0, 2.0, 1.0]),  # no submap axis
        ((1, 80, 7, 3), [0.0, 1.0]),  # 7 coefficients per triangle
        ((2, 81, 19, 3), [0.0, 0.5, 1.0]),  # triangle count off the mesh
        ((2, 80, 19, 3), [0.0, 1.0]),  # one break short
        ((2, 80, 19, 3), [0.0, 2.0, 1.0]),  # decreasing breaks
        ((0, 80, 19, 3), []),  # empty chain without its 0.0
        ((1, 80, 19, 3), [0.0, np.nan]),  # a NaN break
        ((1, 80, 19, 3), [[0.0, 1.0]]),  # 2-D breaks
    ],
)
def test_load_rejects_malformed_chain(tmp_path, n_coeffs, breaks):
    path = tmp_path / "bad.npz"
    np.savez(path, format=1, level=1, breaks=np.array(breaks), coeffs=np.zeros(n_coeffs))
    with pytest.raises(ValueError):
        load_chain(path)


@pytest.mark.parametrize(
    "fields",
    [
        dict(format=1, level=9, breaks=[0.0], coeffs=np.zeros((0, 80, 19, 3))),  # above MAX_LEVEL
        dict(format=1, level=-1, breaks=[0.0], coeffs=np.zeros((0, 80, 19, 3))),
        dict(format=1, level=1, coeffs=np.zeros((0, 80, 19, 3))),  # no breaks
        dict(format=1, breaks=[0.0], coeffs=np.zeros((0, 80, 19, 3))),  # no level
        dict(level=1, breaks=[0.0], coeffs=np.zeros((0, 80, 19, 3))),  # no format
        dict(format=1, level=1, breaks=[0.0]),  # no coefficients
        dict(format=1, level=8, breaks=[0.0], coeffs=np.zeros((0, 80, 19, 3))),  # shape off level 8
        dict(format=[1], level=1, breaks=[0.0], coeffs=np.zeros((0, 80, 19, 3))),  # 1-D format
        dict(format=1, level=[1], breaks=[0.0], coeffs=np.zeros((0, 80, 19, 3))),  # 1-D level
        dict(format=1, level=0.5, breaks=[0.0], coeffs=np.zeros((0, 20, 19, 3))),  # float level
        dict(format=1, level=1, breaks=[0.0, 1.0], coeffs=np.zeros((1, 80, 19, 3), dtype=np.int64)),
        dict(format=1, level=1, breaks=[0.0, 1.0], coeffs=np.full((1, 80, 19, 3), "0")),
        dict(format=1, level=1, breaks=[0.0, 1.0], coeffs=np.full((1, 80, 19, 3), np.nan)),
    ],
)
def test_load_rejects_bad_level_or_missing_keys(tmp_path, monkeypatch, fields):
    # rejected before any mesh is built, so no test builds a deep one
    def build(level):
        raise AssertionError("built a level-%d mesh before rejecting the file" % level)

    monkeypatch.setattr(mapping, "build_icosahedral", build)
    path = tmp_path / "bad.npz"
    np.savez(path, **fields)
    with pytest.raises(ValueError):
        load_chain(path)
