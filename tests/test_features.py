"""Feature arithmetic on hand-built trip graphs."""

import numpy as np
import pytest

from tripsift.features import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    FEATURE_TABLE_COLUMNS,
    FeatureTable,
    FeatureVector,
    extract_feature_table,
    extract_features,
    read_feature_table,
    write_feature_table,
)
from tripsift.tripgraph import TripGraph

MATRIX_FIELDS = ("segment_id", "direction", "avg_speed_mps", "avg_direction_deg", "length_m",
                 "n_hard_brakes", "n_hard_accels", "n_traversals", "n_points")
FLOAT_FIELDS = ("avg_speed_mps", "avg_direction_deg", "length_m")


def row(seg, direction=1, speed=10.0, avg_dir=90.0, length=500.0,
        brakes=0, accels=0, traversals=1, points=5):
    return (seg, direction, speed, avg_dir, length, brakes, accels, traversals, points)


def make_graph(rows, seq=None, length=None, displacement=None,
               resultant=1.0, driver=1, trip=1):
    """A graph of one trip whose matrix columns are the transposed rows."""
    columns = {name: list(column) for name, column in zip(MATRIX_FIELDS, zip(*rows))}
    if seq is None:
        seq = range(len(rows))
    if length is None:
        length = sum(m * n for m, n in zip(columns["length_m"], columns["n_traversals"]))
    if displacement is None:
        displacement = length
    return TripGraph(driver_id=np.array([driver]), trip_id=np.array([trip]),
                     **{name: np.array(column, float if name in FLOAT_FIELDS else np.int64)
                        for name, column in columns.items()},
                     trip_length_m=np.array([length], float),
                     net_displacement_m=np.array([displacement], float),
                     traversal_sequence=np.array(list(seq), np.int64),
                     cog_resultant=np.array([resultant], float),
                     n_rows=np.array([len(rows)]), n_runs=np.array([len(seq)]))


def features_of(graph):
    """The features of a graph of one trip, one float each."""
    return FeatureVector(*np.concatenate(extract_features(graph)).tolist())


def test_feature_names_and_groups_consistent():
    assert len(FEATURE_NAMES) == 10
    assert FEATURE_NAMES[0] == "displacement_ratio" and FEATURE_NAMES[-1] == "mean_speed"
    covered = sorted(i for dims in FEATURE_GROUPS.values() for i in dims)
    assert covered == list(range(10))


def test_straight_trip_features():
    g = make_graph([row(1, avg_dir=90.0), row(2, avg_dir=90.0)],
                   length=1000.0, displacement=1000.0)
    f = features_of(g)
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
    assert features_of(g).displacement_ratio == 1.0


def test_repetition_and_revisit():
    rows = [row(1, traversals=2, points=6), row(2, traversals=1, points=3)]
    seq = [0, 1, 0]
    g = make_graph(rows, seq=seq, length=1500.0, displacement=500.0)
    f = features_of(g)
    assert f.repetition_ratio == pytest.approx(1.5)
    assert f.revisited_edge_fraction == pytest.approx(0.5)
    assert f.displacement_ratio == pytest.approx(500.0 / 1500.0)


def test_turn_density_follows_traversal_sequence():
    rows = [row(1, avg_dir=90.0), row(2, avg_dir=180.0)]
    seq = [0, 1, 0]  # rows of segments 1, 2, 1: out and back, 90 deg twice
    g = make_graph(rows, seq=seq, length=2000.0)
    assert features_of(g).turn_density == pytest.approx(180.0 / 2.0)


def test_turn_density_wraps_correctly():
    rows = [row(1, avg_dir=350.0), row(2, avg_dir=10.0)]
    g = make_graph(rows, length=1000.0)
    assert features_of(g).turn_density == pytest.approx(20.0)


def test_event_features():
    rows = [
        row(1, brakes=2, accels=0, points=4),
        row(2, brakes=1, accels=3, points=4),
    ]
    g = make_graph(rows, length=2000.0)
    f = features_of(g)
    assert f.brakes_per_km == pytest.approx(1.5)
    assert f.max_edge_brakes == 2.0
    assert f.accels_per_km == pytest.approx(1.5)
    assert f.max_edge_accels == 3.0


def test_mean_speed_point_weighted():
    rows = [row(1, speed=10.0, points=2), row(2, speed=20.0, points=1)]
    g = make_graph(rows)
    assert features_of(g).mean_speed == pytest.approx(40.0 / 3.0)


def test_direction_circular_variance():
    g = make_graph([row(1)], resultant=0.25)
    assert features_of(g).direction_circular_variance == pytest.approx(0.75)


def test_degenerate_trip_raises():
    g = make_graph([row(1, length=0.0)], length=0.0, displacement=0.0)
    with pytest.raises(ValueError, match="degenerate"):
        extract_features(g)


def test_matrix_csv_roundtrip(tmp_path):
    awkward = [1 / 3, 0.1, 1e-300, 2.0 ** 60, -0.0, 7.25, 0.0, 1e300, 5e-324, 12.345678901234567]
    vectors = [FeatureVector(*[float(i) for i in range(10)]), FeatureVector(*awkward)]
    table = FeatureTable(keys=[(1, 1), (2, 1)], matrix=np.array(vectors))
    assert table.matrix.shape == (2, 10)
    assert table.matrix[1, FEATURE_NAMES.index("turn_density")] == 2.0 ** 60
    path = tmp_path / "features.csv"
    write_feature_table(table, path)
    again = read_feature_table(path)
    assert again.keys == table.keys
    assert again.matrix.shape == (2, 10)
    assert again.matrix.tobytes() == table.matrix.tobytes()  # bit for bit, -0.0 included


def test_extract_table_sorted_and_duplicates():
    g1 = make_graph([row(1)], driver=2, trip=1)
    g2 = make_graph([row(1)], driver=1, trip=2)
    g3 = make_graph([row(1)], driver=1, trip=1)
    table = extract_feature_table(TripGraph.join([g1, g2, g3]))
    assert table.keys == [(1, 1), (1, 2), (2, 1)]
    assert table.matrix.shape == (3, 10)
    with pytest.raises(ValueError, match="duplicate"):
        extract_feature_table(TripGraph.join([g1, g1]))


def test_table_csv_roundtrip(tmp_path):
    table = extract_feature_table(TripGraph.join([
        make_graph([row(1, speed=12.345678901234567)], driver=1, trip=1),
        make_graph([row(2, brakes=3)], driver=1, trip=2),
    ]))
    path = tmp_path / "features.csv"
    write_feature_table(table, path)
    again = read_feature_table(path)
    assert again.keys == table.keys
    assert np.array_equal(again.matrix, table.matrix)


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
