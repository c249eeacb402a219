"""`repro cache verify`: recompute sampled cached products and compare."""

import json
from pathlib import Path

from repro.cli import build_parser, main
from repro.core.experiments import ReproductionPipeline
from repro.core.experiments.pipeline import stratified_sample

ORACLE = Path(__file__).resolve().parents[2] / "results" / "paper_cache.json"


def _paper_keys():
    pipeline = ReproductionPipeline(legacy_cache=ORACLE)
    return [raw for raw in pipeline.raw_product_keys() if pipeline.has_product(raw)]


def test_stratified_sample_covers_every_kind_and_is_seeded():
    raws = _paper_keys()
    kinds = {raw.split("/")[0] for raw in raws}
    assert len(kinds) == 6
    sample = stratified_sample(raws, 6, seed=0)
    assert {raw.split("/")[0] for raw in sample} == kinds
    assert stratified_sample(raws, 6, seed=0) == sample
    assert stratified_sample(raws, 6, seed=1) != sample
    assert len(set(stratified_sample(raws, 40, seed=3))) == 40
    assert sorted(stratified_sample(raws, 0, seed=0)) == sorted(raws)
    assert sorted(stratified_sample(raws, 10_000, seed=0)) == sorted(raws)


def test_verify_subcommand_options():
    args = build_parser().parse_args(
        ["--seed", "0", "cache", "verify", "--sample", "3", "--seed", "7", "--cache", "c.json"]
    )
    assert (args.command, args.cache_command) == ("cache", "verify")
    assert (args.sample, args.sample_seed, args.cache_file, args.seed) == (3, 7, "c.json", 0)


def _cache_file(tmp_path, products):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(products))
    return str(path)


def test_verify_passes_on_committed_products(tmp_path, capsys):
    oracle = json.loads(ORACLE.read_text())
    path = _cache_file(tmp_path, {"baseline/mcb": oracle["baseline/mcb"]})
    assert main(["cache", "verify", "--cache", path]) == 0
    out = capsys.readouterr().out
    assert "ok       baseline/mcb" in out
    assert "verified 1 of 1 cached products" in out
    assert "0 mismatch(es)" in out


def test_verify_lists_every_mismatch_and_exits_1(tmp_path, capsys):
    oracle = json.loads(ORACLE.read_text())
    tampered = oracle["baseline/mcb"] * (1 + 1e-15)
    assert tampered != oracle["baseline/mcb"]
    path = _cache_file(tmp_path, {"baseline/mcb": tampered})
    assert main(["cache", "verify", "--sample", "0", "--cache", path]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH baseline/mcb" in out
    assert "  mismatch: baseline/mcb" in out
    assert not (tmp_path / "cache").exists()  # nothing written beside the file


def test_verify_refuses_a_file_without_products(tmp_path, capsys):
    path = _cache_file(tmp_path, {"not-a-product": 1})
    assert main(["cache", "verify", "--cache", path]) == 2
    assert main(["cache", "verify", "--cache", str(tmp_path / "missing.json")]) == 2
