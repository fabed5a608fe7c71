import random
from pathlib import Path

import pytest

from lotva import format_lot
from lotva.cli import main
from lotva.sweep import random_lot


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_fig1(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "analyze", str(fixture_dir / "fig1.lot"))
        assert code == 0
        assert "injective:        yes" in out
        assert "prime:            no" in out
        assert "maximal proper sub-LOTs: [[1, 2, 3, 4]]" in out
        assert "complete set of sub-LOTs: [[1, 2, 3, 4]]" in out

    def test_fig3_freely_decomposes(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "analyze", str(fixture_dir / "fig3.lot"))
        assert code == 0
        assert "prime:            no" in out
        assert "free decomposition: at z" in out
        assert "complete set of sub-LOTs: none" in out

    @pytest.mark.parametrize("seed, prime", [(5, True), (28, False)])
    def test_24_edges(self, capsys, tmp_path, seed, prime):
        """No scan of the 2^24 edge masks: the report comes back at once."""
        p = tmp_path / "big.lot"
        p.write_text(format_lot(random_lot(random.Random(seed), 24)))
        code, out, _ = run(capsys, "analyze", str(p))
        assert code == 0
        assert ("prime:            yes" in out) == prime
        assert ("maximal proper sub-LOTs" in out) != prime

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "nope.lot")
        assert code == 2 and "error" in err

    def test_bad_input(self, capsys, tmp_path):
        p = tmp_path / "bad.lot"
        p.write_text("edge a a b\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 2 and "error" in err


class TestLinks:
    def test_plain(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "links", str(fixture_dir / "prime.lot"))
        assert code == 0
        assert "6 nodes, 8 corners" in out

    def test_dot(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "links", "--dot",
                           str(fixture_dir / "fig1.lot"))
        assert code == 0 and out.startswith("graph")

    def test_relative(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "links", str(fixture_dir / "fig1.lot"),
                           "--relative", "1,2,3,4")
        assert code == 0
        assert "63 corners" in out

    def test_complex_file(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "links", str(fixture_dir / "square.cplx"))
        assert code == 0
        assert "4 nodes, 4 corners" in out

    def test_bad_sublot_spec(self, capsys, fixture_dir):
        code, _, err = run(capsys, "links", str(fixture_dir / "fig1.lot"),
                           "--relative", "0,5")
        assert code == 2 and "not a sub-LOT" in err


class TestWeightTest:
    def test_fig1_fails_with_witness(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "weight-test", str(fixture_dir / "fig1.lot"))
        assert code == 1
        assert "FAIL" in out and "cycle of weight 0" in out

    def test_prime_passes(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "weight-test", str(fixture_dir / "prime.lot"))
        assert code == 0 and "PASS" in out

    def test_fig1_relative_passes(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "weight-test", str(fixture_dir / "fig1.lot"),
                           "--relative", "1,2,3,4")
        assert code == 0 and "relative weight test: PASS" in out

    def test_weights_file(self, capsys, fixture_dir, tmp_path):
        wf = tmp_path / "w.weights"
        wf.write_text("corner d_0 0 = 2\n")
        code, out, _ = run(capsys, "weight-test", str(fixture_dir / "prime.lot"),
                           "--weights", str(wf))
        assert code == 1 and "cell d_0" in out


class TestOrientSearch:
    def test_prime_subfixture(self, capsys, tmp_path):
        p = tmp_path / "sub.lot"
        p.write_text("edge b c e\nedge c d b\nedge d e c\n")
        code, out, _ = run(capsys, "orient-search", str(p))
        assert code == 0 and "flip edges: [0]" in out

    def test_fig1_fixed(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "orient-search", str(fixture_dir / "fig1.lot"),
                           "--fix", "1,2,3,4")
        assert code == 0 and "none" in out

    def test_fig1_absolute_negative(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "orient-search", str(fixture_dir / "fig1.lot"))
        assert code == 1


class TestCertifyCli:
    def test_certify_stdout(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "certify", str(fixture_dir / "fig1.lot"))
        assert code == 0 and out.startswith("(complete-set")

    def test_certify_and_verify(self, capsys, fixture_dir, tmp_path):
        cert = tmp_path / "fig1.cert"
        code, _, _ = run(capsys, "certify", str(fixture_dir / "fig1.lot"),
                         "--out", str(cert))
        assert code == 0 and cert.exists()
        code, out, _ = run(capsys, "verify-cert", str(fixture_dir / "fig1.lot"),
                           str(cert))
        assert code == 0 and "accepted" in out

    def test_verify_rejects_mismatch(self, capsys, fixture_dir, tmp_path):
        cert = tmp_path / "fig1.cert"
        run(capsys, "certify", str(fixture_dir / "fig1.lot"), "--out", str(cert))
        code, out, _ = run(capsys, "verify-cert", str(fixture_dir / "fig3.lot"),
                           str(cert))
        assert code == 1 and "rejected" in out

    def test_precondition_error(self, capsys, tmp_path):
        p = tmp_path / "bad.lot"
        p.write_text("vertex a\nvertex b\nedge a b a\n")
        code, _, err = run(capsys, "certify", str(p))
        assert code == 2


_COMPLETE_SET_TAIL = "(flipped) (pos) (neg) (children))"


class TestVerifyCertMalformed:
    """A malformed certificate is an input error (exit 2), never a
    traceback and never a negative decision (exit 1)."""

    @pytest.mark.parametrize("text", [
        "(bdry-red (edge x) (vertex a) (base))",
        "(bdry-red (edge) (vertex a) (base))",
        "(" * 5000 + ")" * 5000,
        "(complete-set (sublots (0)) (chain 7) (final (vertices a)) "
        + _COMPLETE_SET_TAIL,
        "(complete-set (sublots (0)) (chain (step 0 a)) (final (vertices a)) "
        + _COMPLETE_SET_TAIL,
        "(complete-set (sublots (0)) (chain (step (0) a)) "
        "(final (vertices a b) (edge a b)) " + _COMPLETE_SET_TAIL,
    ], ids=["edge-not-int", "edge-empty", "deep-nesting", "step-not-list",
            "step-ids-not-list", "final-edge-3-fields"])
    def test_exit_2(self, capsys, fixture_dir, tmp_path, text):
        cert = tmp_path / "bad.cert"
        cert.write_text(text + "\n")
        code, out, err = run(capsys, "verify-cert",
                             str(fixture_dir / "prime.lot"), str(cert))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestDiagramCli:
    def test_double_and_check(self, capsys, fixture_dir, tmp_path):
        cdir = tmp_path
        cplx = cdir / "prime.cplx"
        from lotva import build_complex, format_complex, parse_lot
        lot = parse_lot((fixture_dir / "prime.lot").read_text())
        cplx.write_text(format_complex(build_complex(lot)))
        code, out, _ = run(capsys, "diagram", "double", str(cplx),
                           "--cell", "d_0")
        assert code == 0 and out.startswith("diagram double_d_0")
        diag = cdir / "pillow.diag"
        diag.write_text(out)
        code, out, _ = run(capsys, "diagram", "check", str(diag),
                           "--complex", str(cplx))
        assert code == 0 and "chi = 2 (sphere)" in out

    def test_check_torus(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "diagram", "check",
                           str(fixture_dir / "torus.diag"),
                           "--complex", str(fixture_dir / "square.cplx"))
        assert code == 0 and "genus-1" in out

    def test_check_invalid(self, capsys, fixture_dir, tmp_path):
        bad = tmp_path / "bad.diag"
        bad.write_text("diagram d over square\nvertex v\n"
                       "edge e v v maps x +\n"
                       "face f cell sq orient + boundary e,e,-e,-e\n")
        code, out, _ = run(capsys, "diagram", "check", str(bad),
                           "--complex", str(fixture_dir / "square.cplx"))
        assert code == 1 and "invalid" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
