"""Feature arithmetic on hand-built trip graphs."""

import numpy as np
import pytest

from tripsift.features import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    FEATURE_TABLE_COLUMNS,
    FeatureVector,
    extract_feature_table,
    extract_features,
    read_feature_table,
    write_feature_table,
)
from tripsift.tripgraph import EdgeAttributeRow, TripGraph


def row(seg, direction=1, speed=10.0, avg_dir=90.0, length=500.0,
        brakes=0, accels=0, traversals=1, points=5):
    return EdgeAttributeRow(seg, direction, speed, avg_dir, length,
                            brakes, accels, traversals, points)


def make_graph(rows, seq=None, length=None, displacement=None,
               resultant=1.0, driver=1, trip=1):
    if seq is None:
        seq = range(len(rows))
    if length is None:
        length = sum(r.length_m * r.n_traversals for r in rows)
    if displacement is None:
        displacement = length
    return TripGraph(driver, trip, list(rows), length, displacement, list(seq), resultant)


def test_feature_names_and_groups_consistent():
    assert len(FEATURE_NAMES) == 10
    assert FEATURE_NAMES[0] == "displacement_ratio" and FEATURE_NAMES[-1] == "mean_speed"
    covered = sorted(i for dims in FEATURE_GROUPS.values() for i in dims)
    assert covered == list(range(10))


def test_straight_trip_features():
    g = make_graph([row(1, avg_dir=90.0), row(2, avg_dir=90.0)],
                   length=1000.0, displacement=1000.0)
    f = extract_features(g)
    assert f.displacement_ratio == 1.0
    assert f.repetition_ratio == 1.0
    assert f.revisited_edge_fraction == 0.0
    assert f.turn_density == 0.0
    assert f.direction_circular_variance == 0.0
    assert f.brakes_per_km == 0.0 and f.accels_per_km == 0.0
    assert f.mean_speed == 10.0


def test_displacement_ratio_clamped():
    # snapped endpoints can sit slightly past the summed segment lengths
    g = make_graph([row(1)], length=500.0, displacement=520.0)
    assert extract_features(g).displacement_ratio == 1.0


def test_repetition_and_revisit():
    rows = [row(1, traversals=2, points=6), row(2, traversals=1, points=3)]
    seq = [0, 1, 0]
    g = make_graph(rows, seq=seq, length=1500.0, displacement=500.0)
    f = extract_features(g)
    assert f.repetition_ratio == pytest.approx(1.5)
    assert f.revisited_edge_fraction == pytest.approx(0.5)
    assert f.displacement_ratio == pytest.approx(500.0 / 1500.0)


def test_turn_density_follows_traversal_sequence():
    rows = [row(1, avg_dir=90.0), row(2, avg_dir=180.0)]
    seq = [0, 1, 0]  # rows of segments 1, 2, 1: out and back, 90 deg twice
    g = make_graph(rows, seq=seq, length=2000.0)
    assert extract_features(g).turn_density == pytest.approx(180.0 / 2.0)


def test_turn_density_wraps_correctly():
    rows = [row(1, avg_dir=350.0), row(2, avg_dir=10.0)]
    g = make_graph(rows, length=1000.0)
    assert extract_features(g).turn_density == pytest.approx(20.0)


def test_event_features():
    rows = [
        row(1, brakes=2, accels=0, points=4),
        row(2, brakes=1, accels=3, points=4),
    ]
    g = make_graph(rows, length=2000.0)
    f = extract_features(g)
    assert f.brakes_per_km == pytest.approx(1.5)
    assert f.max_edge_brakes == 2.0
    assert f.accels_per_km == pytest.approx(1.5)
    assert f.max_edge_accels == 3.0


def test_mean_speed_point_weighted():
    rows = [row(1, speed=10.0, points=2), row(2, speed=20.0, points=1)]
    g = make_graph(rows)
    assert extract_features(g).mean_speed == pytest.approx(40.0 / 3.0)


def test_direction_circular_variance():
    g = make_graph([row(1)], resultant=0.25)
    assert extract_features(g).direction_circular_variance == pytest.approx(0.75)


def test_degenerate_trip_raises():
    g = make_graph([row(1, length=0.0)], length=0.0, displacement=0.0)
    with pytest.raises(ValueError, match="degenerate"):
        extract_features(g)


def test_vector_array_roundtrip():
    vec = FeatureVector(*[float(i) for i in range(10)])
    arr = vec.to_array()
    assert arr.shape == (10,)
    assert FeatureVector.from_array(arr) == vec
    with pytest.raises(ValueError, match="expected 10"):
        FeatureVector.from_array([1.0, 2.0])


def test_extract_table_sorted_and_duplicates():
    g1 = make_graph([row(1)], driver=2, trip=1)
    g2 = make_graph([row(1)], driver=1, trip=2)
    g3 = make_graph([row(1)], driver=1, trip=1)
    table = extract_feature_table([g1, g2, g3])
    assert table.keys == [(1, 1), (1, 2), (2, 1)]
    assert table.to_matrix().shape == (3, 10)
    with pytest.raises(ValueError, match="duplicate"):
        extract_feature_table([g1, g1])


def test_table_csv_roundtrip(tmp_path):
    table = extract_feature_table([
        make_graph([row(1, speed=12.345678901234567)], driver=1, trip=1),
        make_graph([row(2, brakes=3)], driver=1, trip=2),
    ])
    path = tmp_path / "features.csv"
    write_feature_table(table, path)
    again = read_feature_table(path)
    assert again.keys == table.keys
    assert np.array_equal(again.to_matrix(), table.to_matrix())


def test_read_table_errors(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("driver_id,trip_id,f1\n")
    with pytest.raises(ValueError, match="expected header"):
        read_feature_table(path)

    header = ",".join(FEATURE_TABLE_COLUMNS)
    path.write_text(header + "\n1,1,0.5\n")
    with pytest.raises(ValueError, match="malformed row at line 2"):
        read_feature_table(path)

    good = "1,1," + ",".join(["0.5"] * 10)
    path.write_text(header + "\n" + good + "\n" + good + "\n")
    with pytest.raises(ValueError, match="duplicate trip key"):
        read_feature_table(path)

    bad = "1,2," + ",".join(["x"] * 10)
    path.write_text(header + "\n" + bad + "\n")
    with pytest.raises(ValueError, match="non-numeric field at line 2"):
        read_feature_table(path)
