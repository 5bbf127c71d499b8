"""CLI-facing satellites: ``--version``, ``serve`` wiring, ``export --only``."""

from __future__ import annotations

import re

import pytest

from repro.cli import EXIT_ERROR, build_parser, main


class TestVersionFlag:
    def test_version_prints_package_version_and_sha(self, capsys):
        import repro

        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith(f"repro {repro.__version__} (")

    def test_version_string_is_single_sourced_with_pyproject(self):
        import repro
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        text = pyproject.read_text()
        # pyproject must not pin its own version literal...
        assert re.search(r'^version\s*=\s*"', text, re.M) is None
        # ...and must read it from the package attribute instead.
        assert 'version = { attr = "repro.__version__" }' in text
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_version_string_mentions_git_state(self):
        import repro

        line = repro.version_string()
        assert line.startswith(f"repro {repro.__version__} (")
        assert re.search(r"\(([0-9a-f]{12}(, dirty)?|no-git)\)$", line)


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.port == 8080
        assert args.host == "127.0.0.1"
        assert args.rate_limit == 0.0
        assert args.workers == 1
        assert args.max_inflight == 64

    def test_serve_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--jobs", "2", "--rate-limit", "10",
            "--response-cache", "0", "--drain-timeout", "3",
            "--workers", "4", "--max-inflight", "8",
        ])
        assert args.port == 0 and args.jobs == 2
        assert args.rate_limit == 10.0
        assert args.workers == 4
        assert args.max_inflight == 8


class TestExportOnlyValidation:
    def test_unknown_artifact_exits_2_listing_valid_names(self, tmp_path, capsys):
        code = main(["export", "--out", str(tmp_path), "--only", "fig99"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err
        assert "fig99" in err
        assert "fig3d" in err and "table5" in err  # valid names are listed

    def test_multiple_unknown_names_all_reported(self, tmp_path, capsys):
        code = main(
            ["export", "--out", str(tmp_path), "--only", "fig99,bogus,table5"]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "'bogus'" in err and "'fig99'" in err

    def test_empty_selection_is_rejected(self, tmp_path, capsys):
        code = main(["export", "--out", str(tmp_path), "--only", " , "])
        assert code == EXIT_ERROR
        assert "no artifacts selected" in capsys.readouterr().err

    def test_valid_subset_still_exports(self, tmp_path, capsys):
        code = main(["export", "--out", str(tmp_path), "--only", "table5"])
        assert code == 0
        assert (tmp_path / "table5.json").exists()
