import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from jmpgcf import DatasetFormatError, build_adjacency, data, load_dataset, split_validation
from jmpgcf.data import InteractionDataset

from conftest import (
    assert_datasets_equal,
    make_random_dataset,
    reference_parse_interaction_file,
    save_dataset,
)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadDataset:
    def test_direct_transcription(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 1 2\n1 0\n")
        test = write(tmp_path / "test.txt", "")
        ds = load_dataset(train, test)
        assert ds.num_users == 2
        assert ds.num_items == 3
        np.testing.assert_array_equal(ds.train[0], [1, 2])
        np.testing.assert_array_equal(ds.train[1], [0])
        assert ds.num_train_interactions == 3

    def test_uid_only_line_is_empty_list(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 1\n1\n")
        test = write(tmp_path / "test.txt", "")
        ds = load_dataset(train, test)
        assert ds.num_users == 2
        assert len(ds.train[1]) == 0

    def test_empty_test_file_gives_vacuous_split(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 0\n1 1\n")
        test = write(tmp_path / "test.txt", "")
        ds = load_dataset(train, test)
        assert all(len(items) == 0 for items in ds.test)

    def test_counts_span_both_files(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 0\n1 1\n")
        test = write(tmp_path / "test.txt", "1 7\n")
        ds = load_dataset(train, test)
        assert ds.num_items == 8
        np.testing.assert_array_equal(ds.test[1], [7])

    def test_malformed_token_names_file_and_line(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 0\n1 2x\n")
        test = write(tmp_path / "test.txt", "")
        with pytest.raises(DatasetFormatError, match=r"train\.txt:2"):
            load_dataset(train, test)

    def test_negative_index_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 -3\n")
        test = write(tmp_path / "test.txt", "")
        with pytest.raises(DatasetFormatError, match="negative"):
            load_dataset(train, test)

    def test_repeated_user_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 1\n0 2\n")
        test = write(tmp_path / "test.txt", "")
        with pytest.raises(DatasetFormatError, match="multiple lines"):
            load_dataset(train, test)
        # the first line that repeats a uid is named, not the last
        train = write(tmp_path / "train.txt", "0 1\n1 2\n1 3\n0 4\n")
        with pytest.raises(DatasetFormatError, match=r"train\.txt:3: user 1 appears"):
            load_dataset(train, test)

    def test_train_test_overlap_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 1 2\n")
        test = write(tmp_path / "test.txt", "0 2\n")
        with pytest.raises(DatasetFormatError, match="both train and test"):
            load_dataset(train, test)

    def test_test_only_user_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 1\n")
        test = write(tmp_path / "test.txt", "4 0\n")
        with pytest.raises(DatasetFormatError, match="only in the test file"):
            load_dataset(train, test)

    def test_missing_file(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 1\n")
        with pytest.raises(DatasetFormatError, match="not found"):
            load_dataset(train, str(tmp_path / "nope.txt"))

    def test_duplicate_items_within_line_are_deduped(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 1 1 2\n")
        test = write(tmp_path / "test.txt", "")
        ds = load_dataset(train, test)
        np.testing.assert_array_equal(ds.train[0], [1, 2])

    @pytest.mark.parametrize("repeats", [256, 300])
    def test_item_repeated_many_times_is_kept_once(self, tmp_path, repeats):
        train = write(tmp_path / "train.txt", "0 " + "7 " * repeats + "2\n1 3\n")
        test = write(tmp_path / "test.txt", "1 " + "5 " * repeats + "\n")
        ds = load_dataset(train, test)
        np.testing.assert_array_equal(ds.train[0], [2, 7])
        np.testing.assert_array_equal(ds.test[1], [5])
        assert ds.num_train_interactions == 3
        test = write(tmp_path / "test.txt", "0 " + "7 " * repeats + "\n")
        with pytest.raises(DatasetFormatError, match=r"user 0: items \[7\] appear in both"):
            load_dataset(train, test)

    @pytest.mark.parametrize("huge", ["9223372036854775808", "99999999999999999999"])
    def test_id_beyond_int64_names_file_and_line(self, tmp_path, huge):
        for line in (f"1 {huge}\n", f"{huge} 1\n"):
            train = write(tmp_path / "train.txt", "0 1\n" + line)
            test = write(tmp_path / "test.txt", "")
            with pytest.raises(DatasetFormatError, match=r"train\.txt:2: .*int64"):
                load_dataset(train, test)

    def test_non_ascii_byte_names_file_and_line(self, tmp_path):
        for bad in ("caf\u00e9".encode("utf-8"), b"\xff", b"7\x80"):
            train = tmp_path / "train.txt"
            train.write_bytes(b"0 1\n1 2\n2 " + bad + b" 3\n")
            test = write(tmp_path / "test.txt", "")
            with pytest.raises(DatasetFormatError, match=r"train\.txt:3: non-ASCII byte"):
                load_dataset(str(train), test)
            train.write_bytes(b"0 1\n")
            (tmp_path / "test.txt").write_bytes(b"0 2\r\n\r\n" + bad + b"\n")
            with pytest.raises(DatasetFormatError, match=r"test\.txt:3: non-ASCII byte"):
                load_dataset(str(train), str(tmp_path / "test.txt"))

    def test_largest_int64_id_loads_with_remap(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 9223372036854775807 4\n")
        test = write(tmp_path / "test.txt", "")
        ds = load_dataset(train, test, remap=True, mapping_dir=str(tmp_path))
        np.testing.assert_array_equal(ds.train[0], [0, 1])
        item_map = (tmp_path / "item_id_map.txt").read_text().splitlines()
        assert item_map == ["4 0", "9223372036854775807 1"]


def random_interaction_bytes(rng, lines=60):
    """A valid file as bytes: unique uids, tab and vertical-tab or form-feed
    separators, LF, CRLF and lone-CR line ends, blank and whitespace-only
    lines, uid-only lines, leading zeros, the id 2**63 - 1, and sometimes
    no final newline."""
    uids = rng.choice(10 * lines, size=lines, replace=False)
    out = []
    for uid in uids.tolist():
        blank = rng.random()
        if blank < 0.1:
            out.append(b"")
        elif blank < 0.2:
            out.append(rng.choice([b" ", b"\t", b" \t \x0b", b"\x0c"]))
        ids = [uid] + rng.integers(0, 50, size=int(rng.integers(0, 8))).tolist()
        if rng.random() < 0.1:
            ids.append(2**63 - 1)
        tokens = [b"0" * int(rng.integers(0, 3)) + str(i).encode() if rng.random() < 0.2
                  else str(i).encode() for i in ids]
        if rng.random() < 0.05:
            tokens.append(b"0" * 25 + b"42")  # 27 digits that fit in int64
        seps = [rng.choice([b" ", b"\t", b"  ", b" \t", b"\x0b", b"\x0c"]) for _ in tokens]
        lead = rng.choice([b"", b" ", b"\t"])
        out.append(lead + b"".join(t + s for t, s in zip(tokens, seps)).rstrip())
    ends = [rng.choice([b"\n", b"\r\n", b"\r"]) for _ in out]
    text = b"".join(line + end for line, end in zip(out, ends))
    return text[:-len(ends[-1])] if rng.random() < 0.3 else text


# a token that breaks the format, and what the reference makes of it
MALFORMED = {
    "letter": b"2x",
    "negative": b"-3",
    "beyond int64": str(2**63).encode(),
    "too many digits for int()": b"7" * 5000,
    "non-ASCII": "\u00e9".encode("utf-8"),
}


class TestParser:
    """``_parse_interaction_file`` against the line parser it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_files_equal_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "train.txt"
        path.write_bytes(random_interaction_bytes(rng))
        got = data._parse_interaction_file(str(path))
        want = reference_parse_interaction_file(str(path))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    def test_random_files_load_equal_datasets(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(99)
        train, test = tmp_path / "train.txt", tmp_path / "test.txt"
        train.write_bytes(random_interaction_bytes(rng))
        test.write_bytes(b"")
        got = load_dataset(str(train), str(test), remap=True, mapping_dir=str(tmp_path))
        monkeypatch.setattr(data, "_parse_interaction_file", reference_parse_interaction_file)
        want = load_dataset(str(train), str(test), remap=True, mapping_dir=str(tmp_path))
        assert_datasets_equal(got, want)

    @pytest.mark.parametrize("case", [*MALFORMED, "repeated uid"])
    @pytest.mark.parametrize("seed", range(4))
    def test_malformed_same_error_as_reference(self, tmp_path, case, seed):
        rng = np.random.default_rng(seed)
        lines = re.split(rb"(\r\n|\r|\n)", random_interaction_bytes(rng))
        rows = [i for i in range(0, len(lines), 2) if lines[i].split()]
        at = rows[int(rng.integers(1, len(rows)))]
        if case == "repeated uid":
            earlier = lines[rows[int(rng.integers(0, rows.index(at)))]].split()[0]
            lines[at] = b"\t".join([earlier, *lines[at].split()[1:]])
        else:
            tokens = lines[at].split()
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), MALFORMED[case])
            lines[at] = b" ".join(tokens)
        path = tmp_path / "train.txt"
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetFormatError) as want:
            reference_parse_interaction_file(str(path))
        with pytest.raises(DatasetFormatError) as got:
            data._parse_interaction_file(str(path))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}:")

    @pytest.mark.parametrize("line", [b"0 +5", b"0 1_000", b"0 -0"]
                             + [b"0 1" + bytes([c]) + b"2" for c in range(0x1C, 0x20)])
    def test_only_ascii_digit_runs_are_tokens(self, tmp_path, line):
        # int() and str.split() accept these, so the reference loads them
        path = tmp_path / "train.txt"
        path.write_bytes(b"3 4\n" + line + b"\n")
        reference_parse_interaction_file(str(path))
        with pytest.raises(DatasetFormatError, match=r"train\.txt:2: malformed token"):
            data._parse_interaction_file(str(path))

    def test_empty_and_blank_files(self, tmp_path):
        path = tmp_path / "train.txt"
        for text in (b"", b"\n", b" \t\r\n\r\x0b\n"):
            path.write_bytes(text)
            for got in data._parse_interaction_file(str(path)):
                assert got.dtype == np.int64 and got.size == 0


class TestRemap:
    def test_dense_renumbering_and_mapping_files(self, tmp_path):
        train = write(tmp_path / "train.txt", "5 100\n9 100 200\n")
        test = write(tmp_path / "test.txt", "9 300\n")
        ds = load_dataset(train, test, remap=True, mapping_dir=str(tmp_path))
        assert ds.num_users == 2
        assert ds.num_items == 3
        np.testing.assert_array_equal(ds.train[0], [0])
        np.testing.assert_array_equal(ds.train[1], [0, 1])
        np.testing.assert_array_equal(ds.test[1], [2])
        user_map = (tmp_path / "user_id_map.txt").read_text().splitlines()
        item_map = (tmp_path / "item_id_map.txt").read_text().splitlines()
        assert user_map == ["5 0", "9 1"]
        assert item_map == ["100 0", "200 1", "300 2"]

    def test_without_remap_gaps_become_empty_users(self, tmp_path):
        train = write(tmp_path / "train.txt", "0 0\n3 1\n")
        test = write(tmp_path / "test.txt", "")
        ds = load_dataset(train, test)
        assert ds.num_users == 4
        assert len(ds.train[1]) == 0


def test_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    ds = make_random_dataset(rng, 17, 11, with_test=True)
    save_dataset(ds, tmp_path / "train.txt", tmp_path / "test.txt")
    reloaded = load_dataset(str(tmp_path / "train.txt"), str(tmp_path / "test.txt"))
    assert_datasets_equal(ds, reloaded)


def test_interaction_count_matches_lists():
    rng = np.random.default_rng(6)
    ds = make_random_dataset(rng, 23, 9)
    assert ds.num_train_interactions == sum(len(items) for items in ds.train)


def test_from_lists_rejects_overlap():
    with pytest.raises(DatasetFormatError):
        InteractionDataset.from_lists(1, 3, [[0, 1]], [[1]])


def reference_adjacency(ds):
    """The joined adjacency built by flattening ``ds.train`` into COO pairs."""
    m, n = ds.num_users, ds.num_items
    lengths = np.array([len(items) for items in ds.train], dtype=np.int64)
    users = np.repeat(np.arange(m, dtype=np.int64), lengths)
    items = (np.concatenate(ds.train) if ds.num_train_interactions else np.empty(0, np.int64)) + m
    rows = np.concatenate([users, items])
    cols = np.concatenate([items, users])
    csr = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(m + n, m + n)).tocsr()
    csr.sort_indices()
    return csr


class TestOneConstructor:
    def test_overlap_names_lowest_user_and_its_sorted_items(self, tmp_path):
        train_lists = [[1], [5, 3, 2], [4, 0, 6]]
        test_lists = [[], [5, 3], [6, 0]]
        message = r"^user 1: items \[3, 5\] appear in both train and test$"
        with pytest.raises(DatasetFormatError, match=message):
            InteractionDataset.from_lists(3, 7, train_lists, test_lists)
        train = write(tmp_path / "train.txt", "0 1\n1 5 3 2\n2 4 0 6\n")
        test = write(tmp_path / "test.txt", "2 6 0\n1 5 3\n")
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(train, test)

    def test_from_lists_repeated_item_kept_once(self):
        ds = InteractionDataset.from_lists(2, 9, [[8] * 300 + [1], [4]], [[], [0] * 300])
        np.testing.assert_array_equal(ds.train[0], [1, 8])
        np.testing.assert_array_equal(ds.test[1], [0])
        assert ds.num_train_interactions == 3

    def test_from_lists_more_lists_than_users(self):
        with pytest.raises(DatasetFormatError, match="3 item lists for 2 users"):
            InteractionDataset.from_lists(2, 4, [[0], [1], [2]])
        with pytest.raises(DatasetFormatError, match="3 item lists for 2 users"):
            InteractionDataset.from_lists(2, 4, [[0], [1]], [[], [], [3]])

    def test_from_lists_item_out_of_range_names_user(self):
        with pytest.raises(DatasetFormatError, match=r"user 1: item index out of range \[0, 4\)"):
            InteractionDataset.from_lists(3, 4, [[0], [4], [-1]])

    def test_from_lists_zero_users(self):
        ds = InteractionDataset.from_lists(0, 0, [])
        assert (ds.num_users, ds.num_items, ds.num_train_interactions) == (0, 0, 0)
        assert ds.train == () and ds.test == ()

    def test_per_user_arrays_are_int64_slices_of_one_buffer(self, tmp_path):
        from_lists = InteractionDataset.from_lists(3, 5, [[4, 1], [], [2]], [[0], [3], []])
        save_dataset(from_lists, tmp_path / "train.txt", tmp_path / "test.txt")
        loaded = load_dataset(str(tmp_path / "train.txt"), str(tmp_path / "test.txt"))
        for ds in (from_lists, loaded):
            for split in (ds.train, ds.test):
                assert all(items.dtype == np.int64 for items in split)
                assert len({id(items.base) for items in split}) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_build_adjacency_matches_coo_reference(self, seed):
        rng = np.random.default_rng(seed)
        train = [rng.choice(30, size=rng.integers(0, 6), replace=False) for _ in range(25)]
        ds = InteractionDataset.from_lists(25, 31, train)
        got = build_adjacency(ds)
        want = reference_adjacency(ds)
        for name, expected in (
            ("row_offsets", want.indptr), ("col_indices", want.indices), ("values", want.data)
        ):
            actual = getattr(got, name)
            assert actual.dtype == expected.dtype, name
            np.testing.assert_array_equal(actual, expected, err_msg=name)


class TestSplitValidation:
    def test_ceil_one_of_ten(self):
        ds = InteractionDataset.from_lists(1, 12, [list(range(1, 11))])
        main, holdout = split_validation(ds, 0.1, seed=0)
        assert len(holdout.test[0]) == 1
        assert len(main.train[0]) == 9

    def test_half_of_four_is_a_partition(self):
        ds = InteractionDataset.from_lists(1, 6, [[0, 2, 3, 5]])
        main, holdout = split_validation(ds, 0.5, seed=1)
        assert len(holdout.test[0]) == 2
        merged = np.union1d(main.train[0], holdout.test[0])
        np.testing.assert_array_equal(merged, [0, 2, 3, 5])
        assert np.intersect1d(main.train[0], holdout.test[0]).size == 0

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(2)
        ds = make_random_dataset(rng, 30, 20, max_degree=8)
        a_main, a_hold = split_validation(ds, 0.25, seed=42)
        b_main, b_hold = split_validation(ds, 0.25, seed=42)
        assert_datasets_equal(a_main, b_main)
        assert_datasets_equal(a_hold, b_hold)

    def test_single_item_user_is_never_emptied(self):
        ds = InteractionDataset.from_lists(2, 4, [[3], [0, 1]])
        main, holdout = split_validation(ds, 0.9, seed=0)
        np.testing.assert_array_equal(main.train[0], [3])
        assert len(holdout.test[0]) == 0
        # even at fraction 0.9 the other user keeps one item
        assert len(main.train[1]) == 1

    def test_fraction_bounds(self, tiny_dataset):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_validation(tiny_dataset, bad, seed=0)

    def test_holdout_shares_reduced_train_lists(self):
        rng = np.random.default_rng(3)
        ds = make_random_dataset(rng, 10, 15, max_degree=6)
        main, holdout = split_validation(ds, 0.34, seed=7)
        for u in range(ds.num_users):
            np.testing.assert_array_equal(main.train[u], holdout.train[u])
            assert np.intersect1d(holdout.train[u], holdout.test[u]).size == 0

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.9])
    def test_sizes_partition_and_test_split(self, fraction):
        """Each user moves min(ceil(f n), n - 1) of its n items (none of
        an empty list); the moved and kept items are disjoint and make up
        the user's list; the main split keeps the original test lists."""
        ds = make_random_dataset(np.random.default_rng(8), 60, 40, max_degree=25,
                                 with_test=True)
        ds = InteractionDataset.from_lists(61, 40, list(ds.train) + [[]],
                                           list(ds.test) + [[]])
        main, holdout = split_validation(ds, fraction, seed=5)
        assert main.num_users == holdout.num_users == 61
        for u, items in enumerate(ds.train):
            n = len(items)
            moved, kept = holdout.test[u], main.train[u]
            assert len(moved) == max(0, min(math.ceil(fraction * n), n - 1))
            assert np.intersect1d(moved, kept).size == 0
            np.testing.assert_array_equal(np.union1d(moved, kept), items)
            np.testing.assert_array_equal(main.test[u], ds.test[u])
        assert main.num_train_interactions == sum(len(k) for k in main.train)

    def test_another_seed_draws_another_holdout(self):
        ds = make_random_dataset(np.random.default_rng(9), 40, 30, max_degree=10)
        holdouts = [split_validation(ds, 0.3, seed=seed)[1].test for seed in (11, 12)]
        assert any(not np.array_equal(a, b) for a, b in zip(*holdouts))

    def test_holdout_is_uniform_chi_squared(self):
        """Every user holds the same five items and moves two of them: each
        item, and each of the ten pairs, is moved equally often across
        users."""
        from scipy.stats import chisquare

        users, items = 20_000, [1, 3, 4, 6, 8]
        ds = InteractionDataset.from_lists(users, 9, [items] * users)
        _, holdout = split_validation(ds, 0.4, seed=13)
        moved = np.array([t.tolist() for t in holdout.test])
        assert moved.shape == (users, 2)
        _, per_item = np.unique(moved, return_counts=True)
        assert per_item.size == 5 and chisquare(per_item).pvalue > 0.01
        _, per_pair = np.unique(moved, axis=0, return_counts=True)
        assert per_pair.size == 10 and chisquare(per_pair).pvalue > 0.01
