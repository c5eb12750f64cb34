"""Pinned graph-runner rows through ``harness.run_single``.

For a given (config, seed) the RNG draw order, and so every accept and drop
decision of the box archives, is part of a graph run's contract: a faster
step must give the same rows. Each run is pinned by its whole summary row and
by the sha256 of its metric rows, both as CSV lines in column order. Instance
files are written to the test's directory under relative names, so the
run_ids do not depend on where the test runs. The rows were recorded before
the incremental step landed; re-recording them to make a change pass defeats
the test.

Planted instances: n=10 has exact references, so empmo-cons-sp and demo-sp
stop at coverage with metric rows; n=14 has none, so they spend the whole
budget and the evaluation count pins the trajectory.
"""

import csv
import hashlib
import io

import pytest

from mpmolab.harness import METRIC_COLUMNS, SUMMARY_COLUMNS, ExperimentConfig, run_single
from mpmolab.instances import KIND_PLANTED, InstanceSpec, generate_planted_uav, write_instance

BUDGET = 3000
PLANTED = {"planted10.bpm": 10, "planted14.bpm": 14}
INSTANCE_SEED = 3

# (algorithm, instance, seed) -> (summary CSV line, metric row count, metric sha256)
GOLDEN = {
    ('empmo-cons-sp', 'fixture', 0): (
        '0563058bb0e9,empmo-cons-sp,,fixture,5,,1,1,2,0,3000,13,23,13,\n',
        1, 'd6fa368226810cd8767a2b0d484608f2ceabd34f573ff8167f455edf5a3e1780',
    ),
    ('empmo-cons-sp', 'fixture', 1): (
        '86c0a9170f28,empmo-cons-sp,,fixture,5,,1,1,2,1,3000,28,56,28,\n',
        1, '06a4d006cf0f0b0b6743fe0fecc5b88fbf3d220d360d32d20a36a6827fdcae4d',
    ),
    ('demo-sp', 'fixture', 0): (
        'dfcae825beed,demo-sp,,fixture,5,,1,1,2,0,3000,13,23,13,\n',
        1, 'dfcdb01ea04e5af2ae51bc93a14c8407ddab77ec634f1904b3b7706ba8298f89',
    ),
    ('demo-sp', 'fixture', 1): (
        'ff65a3bcdaf4,demo-sp,,fixture,5,,1,1,2,1,3000,28,56,28,\n',
        1, '14198a8bf2a9d7b4faeb4c8cac7c3157c716997b40229ea846f6b8ad22be52db',
    ),
    ('empmo-simple-sp', 'fixture', 0): (
        '5b4013d2238c,empmo-simple-sp,,fixture,5,,1,1,2,0,3000,3448,3000,3448,\n',
        30, '5bede92e2fce0b639a82616c94ebdc796d4b4ddcc7412a14b2beb8cea5c84a8f',
    ),
    ('empmo-simple-sp', 'fixture', 1): (
        '0787ea51f1c0,empmo-simple-sp,,fixture,5,,1,1,2,1,3000,3448,3000,3448,\n',
        30, 'e8019dbf1eb5d4383fc393036bb44c8d293055434358029286fd2963d5f39804',
    ),
    ('empmo-cons-sp', 'planted10.bpm', 0): (
        '2550726607bd,empmo-cons-sp,,planted10.bpm,10,,1,1,2,0,3000,286,655,286,\n',
        7, 'd024ff7aa2a743d5e6e08978774b0ab53720ee6f10eaf9e1980c8afe0b63d3b0',
    ),
    ('empmo-cons-sp', 'planted10.bpm', 1): (
        '2fc4172d1333,empmo-cons-sp,,planted10.bpm,10,,1,1,2,1,3000,139,274,139,\n',
        3, '004bf87635730db28479dfadf51fd42840fd899f8e335e75e8b1c6f70b2656ae',
    ),
    ('demo-sp', 'planted10.bpm', 0): (
        '93174fceee37,demo-sp,,planted10.bpm,10,,1,1,2,0,3000,286,655,286,\n',
        7, '498a4e60b48c40ec894d302bf3fa99442845f754fab8302bb017449e4f38acbd',
    ),
    ('demo-sp', 'planted10.bpm', 1): (
        '2d0a83c3c72d,demo-sp,,planted10.bpm,10,,1,1,2,1,3000,139,274,139,\n',
        3, '81fbcf2beb4e3f98626f8f6ee670f66020eefcfe1a5a7ab3a19924bc9ffecc6a',
    ),
    ('empmo-simple-sp', 'planted10.bpm', 0): (
        'e05d5bdba90d,empmo-simple-sp,,planted10.bpm,10,,1,1,2,0,3000,2641,3000,2641,\n',
        30, 'cf9516d8c71afbc9d071121578e73be87545a3fc48fbbcd96a56c28e921ecc87',
    ),
    ('empmo-simple-sp', 'planted10.bpm', 1): (
        '90fa4477b0e1,empmo-simple-sp,,planted10.bpm,10,,1,1,2,1,3000,2632,3000,2632,\n',
        30, '74bae293168206adc8fa9f9eaf68ec37081e62198a55001cd92d916e8b2836d9',
    ),
    ('empmo-cons-sp', 'planted14.bpm', 0): (
        'a9225526ed80,empmo-cons-sp,,planted14.bpm,14,,1,1,2,0,3000,1216,3000,,\n',
        0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('empmo-cons-sp', 'planted14.bpm', 1): (
        '469f8e64254c,empmo-cons-sp,,planted14.bpm,14,,1,1,2,1,3000,1231,3000,,\n',
        0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('demo-sp', 'planted14.bpm', 0): (
        '6d47677fc610,demo-sp,,planted14.bpm,14,,1,1,2,0,3000,1216,3000,,\n',
        0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    ('demo-sp', 'planted14.bpm', 1): (
        'd7b7733cddd0,demo-sp,,planted14.bpm,14,,1,1,2,1,3000,1231,3000,,\n',
        0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
}


def csv_lines(columns, rows) -> str:
    buf = io.StringIO()
    csv.DictWriter(buf, fieldnames=columns, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, n in PLANTED.items():
        spec = InstanceSpec(KIND_PLANTED, n, seed=INSTANCE_SEED)
        (d / name).write_text(write_instance(generate_planted_uav(spec)))
    return d


@pytest.mark.parametrize("algorithm,instance,seed", sorted(GOLDEN))
def test_run_single_rows_are_pinned(algorithm, instance, seed, instance_dir, monkeypatch):
    monkeypatch.chdir(instance_dir)
    config = ExperimentConfig(
        algorithm, instance=instance, eps1=1, eps2=1, eps2max=2, seeds=(seed,), budget=BUDGET
    )
    record = run_single(config, seed)
    summary, count, digest = GOLDEN[(algorithm, instance, seed)]
    assert csv_lines(SUMMARY_COLUMNS, [record.summary]) == summary
    assert len(record.metrics) == count
    assert hashlib.sha256(csv_lines(METRIC_COLUMNS, record.metrics).encode()).hexdigest() == digest
