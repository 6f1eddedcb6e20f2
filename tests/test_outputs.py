"""The deterministic outputs, pinned by SHA-256: every file of the `suite
--scale quick` trees at seeds 0 and 7 and of the `suite --scale full` tree
at seed 0, the stdout of `crovisier --depth 4 --closure --max-iter 2`
at seeds 0 and 11 and at depth 5 at seeds 0 and 1, and of `crovisier
--depth 3 --closure --max-iter 2` at two wide deltas, and the stdout of `shadow --orbit` on a noisy cat-map
segment and a noisy periodic cat-map orbit by both methods.  A one-bit
change to any of them fails here.

The digests hold for the numpy and BLAS build they were taken with, whose
version is recorded beside them; on another numpy the tests skip.  A change
meant to move an output recomputes the digests it moves and states the
diff.  The `full` tree is the slowest test here, at about 4 s on a 2-vCPU
VM; each depth-5 closure takes about 1.5 s there.
"""

import hashlib

import numpy
import numpy as np
import pytest

from shadowbench.cli import EXIT_BUDGET, EXIT_OK, main
from shadowbench.torus import TorusPoint, cat_map

NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    numpy.__version__ != NUMPY,
    reason=f"output digests were taken with numpy {NUMPY}, installed is {numpy.__version__}")

SUITE_QUICK = {
    0: {
        "closure.json": "0b1f3ad58d15627ed48922b6383154f2db4d24e905349b969c9f9bdf96b8cc33",
        "closure_fixed-point.csv": "99803103486e7c786e3ca1d03536c3a4eaf5945047ea9e679cefcbca799d02e3",
        "closure_three-cycle.csv": "811f9744ae2dea69e3ab7c881a4880ee8ee4cbc595190f2b6e5800f51f897d2c",
        "closure_two-cycle.csv": "45cdd6b6ff738b38ad0ca191318772c4fb9a1cb1ea8731b610f3424e5925bee2",
        "crovisier.csv": "c01493852c422ccfde1d55363ebd4582369b07e958f0ea5a7eb8f7ed52fd1452",
        "crovisier.json": "9e172203faa4b050a0d362b27c88cbc6d9e80d01e47df4f980792466e8b15135",
        "equivariance.json": "9d3eff94fcf3208e9371308a9f394661e51d6b2ca0d14dee10fddee9026b459d",
        "sft.json": "c8df02245eadcc24b07821aac0dca8d3d04ceb9d4871544d96e72606113db95e",
        "shadow.json": "eaf1259338ecb4914afeea9d590098a0db8ef84693fd125fb00edc49f7b47ff5",
        "summary.json": "9f2e104ab6bd911a2c50e3744350d49983afec86f3cf6b6f227ed97d8b537124",
    },
    7: {
        "closure.json": "0b1f3ad58d15627ed48922b6383154f2db4d24e905349b969c9f9bdf96b8cc33",
        "closure_fixed-point.csv": "99803103486e7c786e3ca1d03536c3a4eaf5945047ea9e679cefcbca799d02e3",
        "closure_three-cycle.csv": "811f9744ae2dea69e3ab7c881a4880ee8ee4cbc595190f2b6e5800f51f897d2c",
        "closure_two-cycle.csv": "45cdd6b6ff738b38ad0ca191318772c4fb9a1cb1ea8731b610f3424e5925bee2",
        "crovisier.csv": "e80fc676cab884a38eecb5eee16f1d3bfd6b3a6efaa9086c208d8e83696642f5",
        "crovisier.json": "35ecdf841b33f50b2cbdb0b8e1f74cd14598141712793c578e6619e06cdc6b81",
        "equivariance.json": "104e09e0c902ca6218e2b366b0d5f6ac2a9e95be9ea5647395d5a285bc3a1616",
        "sft.json": "c8df02245eadcc24b07821aac0dca8d3d04ceb9d4871544d96e72606113db95e",
        "shadow.json": "7e1047dc74d6fb30064d46de45002404db05b58d27653ff91d8c49a6d7800076",
        "summary.json": "55564ec12f478f841d01ba45d1e14f55857490a187e05a5109ac216b190504c4",
    },
}

SUITE_FULL_0 = {
    "closure.json": "cc80cc3329d9636c9ae8464371b18715a85946647db4a9b947c0439643219bee",
    "closure_cycles-union.csv": "b12211f1a9cb463ee8a05869da0a568fc91a82208b5676c047e78f19db69cac2",
    "closure_fixed-point.csv": "99803103486e7c786e3ca1d03536c3a4eaf5945047ea9e679cefcbca799d02e3",
    "closure_homoclinic-long.csv": "15ddf1ca19fde6f54698a78fc150e1c1867326f59cc799e081d525c179523e44",
    "closure_homoclinic-longer.csv": "15ddf1ca19fde6f54698a78fc150e1c1867326f59cc799e081d525c179523e44",
    "closure_homoclinic-m01.csv": "6b7a7b5b1dca87aaf682b586857806ee7c04a1c348ed61980f1b13b119823990",
    "closure_homoclinic-m10.csv": "6e84fd28bdc735343768b12487efc26f7f920099b6dfbc46ac25f078e6102fba",
    "closure_homoclinic-m11.csv": "859b9688808c53d6eef32ef6179cc70c65d9b2772aea6808dcba172bc81118fd",
    "closure_homoclinic-short.csv": "b642f6c50cccde233f63fa83f4cee4c2ff92298563d0d646256f5ead87cac2d1",
    "closure_three-cycle.csv": "811f9744ae2dea69e3ab7c881a4880ee8ee4cbc595190f2b6e5800f51f897d2c",
    "closure_two-cycle.csv": "45cdd6b6ff738b38ad0ca191318772c4fb9a1cb1ea8731b610f3424e5925bee2",
    "crovisier.csv": "bcf9e2b485c225c4b3371a2c47deb7927d36d82d37db3f39e30fd962b2ba0c2b",
    "crovisier.json": "aba27520b75abcc68af3cc89a5abf0e6cfa23f6f0acf437941c970137dc0e765",
    "equivariance.json": "9deb14385d86bf51b9d473e6b6e50f06aba7f7cfabcfd9e3dfd94aebadfdddd7",
    "sft.json": "a75918ee92f56dde5018a10afca907d723980b6658dcaa5ad930aa7218ee4706",
    "shadow.json": "4b2058638ee87fb02118bb1f74880e0f2a93bbaedeb629e682ea3fad51a5fba3",
    "summary.json": "c3ce1d1741392d0fe31105b8dff5e7376e12b615e634523a4cc7461d1cc0fa81",
}

# the closure runs out of its two steps: exit code 3
CROVISIER_DEPTH_4 = {
    0: "ae49ce346eeca5c40429a664c2210864de13b399bff15f9e77f156849781f758",
    11: "ef271f6dabd875718e2cf7a0c5537e0dd084c3cc051abd844c373ef4d76597fb",
}

# the same at depth 5: a net of about a million cells, whose graphs stay lazy
CROVISIER_DEPTH_5 = {
    0: "dfc05b773a216e1577d2924cc30bc85f6340bbe1d695d656018dd986304d414d",
    1: "fa067420561f4d8fa9d169dc6fdc386c90a75affd5b56a2e54acb34eb307c6c5",
}


@pytest.mark.parametrize("seed", sorted(SUITE_QUICK))
def test_quick_suite_tree_is_pinned(seed, tmp_path):
    assert main(["suite", "--out", str(tmp_path), "--scale", "quick", "--seed", str(seed)]) == EXIT_OK
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == SUITE_QUICK[seed]


def test_full_suite_tree_is_pinned(tmp_path):
    assert main(["suite", "--out", str(tmp_path), "--scale", "full", "--seed", "0"]) == EXIT_OK
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == SUITE_FULL_0


@pytest.mark.parametrize("seed", sorted(CROVISIER_DEPTH_4))
def test_crovisier_stdout_is_pinned(seed, capsys):
    code = main(["crovisier", "--depth", "4", "--closure", "--max-iter", "2", "--seed", str(seed)])
    assert code == EXIT_BUDGET
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CROVISIER_DEPTH_4[seed]


@pytest.mark.parametrize("seed", sorted(CROVISIER_DEPTH_5))
def test_crovisier_depth_5_stdout_is_pinned(seed, capsys):
    code = main(["crovisier", "--depth", "5", "--closure", "--max-iter", "2", "--seed", str(seed)])
    assert code == EXIT_BUDGET
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CROVISIER_DEPTH_5[seed]


# (--closure-delta, seed) -> stdout digest at depth 3, two steps, exit code 3.
# At 0.6 the ball spans more than half the 8-cell axis and the graph stays
# lazy; at 0.3 it is materialized.
CROVISIER_DEPTH_3 = {
    ("0.6", 0): "f329fd61ec2bbdb0208c182cfee845d68a880bd71c5a8cfc36858eea5468857e",
    ("0.6", 1): "e1f65b945a57b7bcb12f1e3e8ed43cf9c722e5ebd05e3883ae93de5f34d46588",
    ("0.3", 0): "d950327d1664ddea87091c35800107bd4113d341b7efbf9757e8544a54a53b56",
}


@pytest.mark.parametrize("delta,seed", sorted(CROVISIER_DEPTH_3))
def test_crovisier_wide_delta_stdout_is_pinned(delta, seed, capsys):
    code = main(["crovisier", "--depth", "3", "--closure", "--max-iter", "2",
                 "--closure-delta", delta, "--seed", str(seed)])
    assert code == EXIT_BUDGET
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CROVISIER_DEPTH_3[delta, seed]


# (orbit file, --method) -> stdout digest
SHADOW = {
    ("segment", "exact"):
        "799c77155ff2a52307176e86085ee9eb23a12d3a19703b424d4dd579ccd4d341",
    ("segment", "newton"):
        "3141780c14bf5fcc2852a7b7654f17cb8da47105ff38116a60f0349de09c18be",
    ("periodic", "exact"):
        "7083b326cc27b366f8c11fb6cf56482cfdd249f97c51c11a22526ea2b258ae14",
    ("periodic", "newton"):
        "5639530c3e432bab1eb75a9dfe0b0d4d164afa69e8711f13f777e76b92e6e9a4",
}


def _noisy_orbit_file(kind, path):
    """A cat-map orbit plus uniform noise of size 1e-3, as `index,x0,x1`
    rows: the segment f^-20(p)..f^20(p), or the period-10 orbit of (1/5, 0)
    from index 0."""
    if kind == "segment":
        start, pts = -20, cat_map().orbit_segment(TorusPoint((0.31, 0.47)), -20, 20)
    else:
        rows, x = [], (1, 0)
        for _ in range(10):
            rows.append(x)
            x = ((2 * x[0] + x[1]) % 5, (x[0] + x[1]) % 5)
        start, pts = 0, np.array(rows) / 5
    pts = pts + np.random.default_rng(3).uniform(-1e-3, 1e-3, pts.shape)
    path.write_text("index,x0,x1\n" + "".join(
        f"{j},{x!r},{y!r}\n" for j, (x, y) in enumerate(pts.tolist(), start)))


@pytest.mark.parametrize("kind,method", sorted(SHADOW))
def test_shadow_stdout_is_pinned(kind, method, tmp_path, capsys):
    path = tmp_path / "orbit.csv"
    _noisy_orbit_file(kind, path)
    argv = ["shadow", "--orbit", str(path), "--method", method]
    assert main(argv + (["--periodic"] if kind == "periodic" else [])) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SHADOW[kind, method]
