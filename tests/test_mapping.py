import numpy as np
import pytest
from conftest import sample_sphere

from cmsphere import mapping
from cmsphere.errors import ZeroVector
from cmsphere.geom import area_form, rotation_matrix, vertex_frames
from cmsphere.mapping import MapChain, SphereMap, load_chain, save_chain
from cmsphere.mesh import build_icosahedral
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
    # the chained determinant is the area form of the frames pushed through jet
    r1 = rotation_matrix(np.array([0.0, 1.0, 0.0]), 0.4)
    r2 = rotation_matrix(np.array([1.0, 0.0, 0.0]), -0.9)
    chain = MapChain(mesh=mesh, maps=[linear_map(mesh, r1), linear_map(mesh, r2)])
    out, pushed = chain.jet(points, np.stack(vertex_frames(points), axis=1))
    x, dets = chain.eval_with_jacobian(points)
    assert np.array_equal(chain.eval(points), out)
    assert np.array_equal(x, out)
    assert np.array_equal(dets, area_form(out, pushed))
    oa, ob = vertex_frames(out)
    m = np.einsum("nqj,nrj->nqr", pushed, np.stack([oa, ob], axis=1))
    assert np.abs(dets - np.linalg.det(m)).max() < 1e-13


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


def test_save_load_empty_chain(tmp_path, mesh):
    path = tmp_path / "empty.npz"
    save_chain(MapChain(mesh=mesh), path)
    back = load_chain(path, mesh=mesh)
    assert back.n_submaps == 0
    assert back.breaks == [0.0]


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
