import hashlib
import json
from fractions import Fraction
from functools import lru_cache

import pytest

import crsplucker.crs
from crsplucker.combinat import (
    InputPartition,
    enumerate_partitions_no_ones,
    factorial_of_multiplicities,
)
from crsplucker.crs import (
    ClassCache,
    D,
    DivisibilityViolation,
    PivotPolicy,
    class_from_json,
    class_to_json,
    class_via,
    crs_class,
    recursion_step,
    rows_at,
    step_at,
)
from crsplucker.exactalg import DPoly, dpoly, dpoly_eval
from crsplucker.plucker import top_degree_class, top_degree_slice, ym_class_closed_form
from crsplucker.symfunc import SchurClass, TwoRowPartition, unit_class
from localization_oracle import localization_class
from pieri_oracle import pieri_product


def y2():
    return SchurClass(1, {TwoRowPartition(1, 0): dpoly(0, -1, 1)})


class TestBaseAndSmallCases:
    def test_empty_partition(self):
        assert crs_class(InputPartition(())) == unit_class()

    def test_single_two(self):
        assert crs_class(InputPartition((2,))) == y2()

    def test_single_three(self):
        got = crs_class(InputPartition((3,)))
        assert got == SchurClass(
            2,
            {
                TwoRowPartition(2, 0): dpoly(0, 2, -3, 1),  # d(d-1)(d-2)
                TwoRowPartition(1, 1): dpoly(0, -6, 3),  # 3d(d-2)
            },
        )

    def test_two_two(self):
        got = crs_class(InputPartition((2, 2)))
        half = Fraction(1, 2)
        # 1/2 d(d-1)(d-2)(d-3) and 1/2 d(d-2)(d-3)(d+3)
        assert got.coefficient((2, 0)) == dpoly(0, -3 * half * 2, 11 * half, -3, half)
        assert got.coefficient((1, 1)) == dpoly(0, 9, Fraction(-9, 2), -1, half)


class TestRecursionStep:
    # recursion_step maps prod e_i! * [Y_lambda'] to prod e_i! * [Y_lambda]
    def test_from_empty(self):
        assert recursion_step(unit_class(), 2) == y2()

    def test_two_two_from_two(self):
        got = recursion_step(y2(), 2)
        assert got == crs_class(InputPartition((2, 2))).scale(2)

    def test_three_two_pivot_orders_agree(self):
        via_3 = recursion_step(y2(), 3)
        via_2 = recursion_step(crs_class(InputPartition((3,))), 2)
        assert via_3 == via_2 == crs_class(InputPartition((3, 2)))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            recursion_step(unit_class(), 1)

    def test_steps_run_in_int_arithmetic(self, monkeypatch):
        real = crsplucker.crs.recursion_step
        results = []

        def recording(*args):
            result = real(*args)
            results.append(result)
            return result

        monkeypatch.setattr(crsplucker.crs, "recursion_step", recording)
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(14):
            crs_class(lam, cache=cache)
        assert len(results) == len(enumerate_partitions_no_ones(14))
        for result in results:
            for _, coeff in result.items():
                assert all(type(c) is int for c in coeff.coeffs.values()), result


@lru_cache(maxsize=None)
def cache_to_weight_16():
    cache = ClassCache()
    for lam in enumerate_partitions_no_ones(16):
        crs_class(lam, cache=cache)
    return cache


def removal_steps(max_weight):
    """lambda, m, lambda - (m) and the classes of lambda and lambda - (m),
    each with its prod e_i!, for every partition of weight <= max_weight <= 16
    and every distinct part m."""
    cache = cache_to_weight_16()
    for lam in enumerate_partitions_no_ones(max_weight):
        for m in sorted(set(lam.parts)):
            smaller = lam.remove(m)
            yield (
                lam, m, smaller,
                (crs_class(lam, cache=cache), factorial_of_multiplicities(lam)),
                (crs_class(smaller, cache=cache), factorial_of_multiplicities(smaller)),
            )


class TestStepAt:
    # step_at maps prod e_i! * [Y_lambda'] at z to prod e_i! * [Y_lambda] at z + m
    def test_equals_the_class_at_a_point(self):
        pairs = 0
        for lam, m, smaller, cls, sub in removal_steps(14):
            for x in (lam.weight, lam.weight + 7, 10**12 + 3):
                assert step_at(rows_at(*sub, x - m), smaller.codim, m, x - m) == rows_at(*cls, x), (lam, m, x)
            pairs += 1
        assert pairs == 272

    def test_majorant_bounds_each_row_1_norm(self):
        for lam, m, smaller, cls, sub in removal_steps(16):
            majorant = step_at(rows_at(*sub, 1 + m, abs), smaller.codim, m, 1 + m, majorant=True)
            norms = rows_at(*cls, 1, abs)
            assert len(majorant) == len(norms)
            assert all(bound >= norm for bound, norm in zip(majorant, norms)), (lam, m)

    def test_single_part_from_the_unit_class(self):
        assert step_at([1], 0, 2, 5) == rows_at(y2(), 1, 7)
        for m in [*range(2, 41), 60]:
            closed = ym_class_closed_form(m)
            for z in (m, 10**12 + 3):
                assert step_at([1], 0, m, z) == rows_at(closed, 1, z + m), (m, z)

    def test_violation_raises_and_majorant_rounds_up(self):
        # s_(1,0)(a+x, b+x) = s_(1,0) + 2x, so a value 1 of s_(1,0) at z = 3
        # gives B_1 = 2, not divisible by 3.  The majorant rounds 2/3 up to 1:
        # at z = 3, e_1 = z + 2 = 5 and e_2 = (z + 2)(z + 1) = 20, so
        # A_0 = 20 s_(1,0) adds 20 to both rows and |A_1| = 25 s_(1,1), times
        # m * 1 = 2, adds 50 to row 1
        with pytest.raises(DivisibilityViolation):
            step_at([1], 1, 2, 3)
        assert step_at([1], 1, 2, 3, majorant=True) == [20, 70]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            step_at([1], 0, 1, 5)


class TestDivisibility:
    # B_t / d^t by divmod, as step_at divides over Z[d]
    def test_t_zero_always_ok(self):
        assert divmod(dpoly(0, -1, 1), 1) == (dpoly(0, -1, 1), 0)

    def test_b1_of_y2_ok(self):
        assert divmod(dpoly(0, -2, 2), D) == (dpoly(-2, 2), DPoly())  # (2d^2 - 2d) / d

    def test_violation_raises(self):
        # s_(1,0)(a+x, b+x) = s_(1,0) + 2x: the value 1 of s_(1,0) gives B_1 = 2, not divisible by d
        assert divmod(dpoly(1, 1), D) == (dpoly(1), dpoly(1))
        with pytest.raises(DivisibilityViolation):
            step_at([DPoly({0: 1})], 1, 2, D)


class TestGoldenOutput:
    # sha256 of the serialized classes of weight <= 16 before the recursion
    # divided B_t by d^t ahead of the product; any change in output shows here
    WEIGHT_16_SHA256 = "fac4e419a394b446c9b4a09c7f7d2f0c2ada24ccbaa782907e28f791223e48d2"

    def test_weight_16_byte_identical(self):
        cache = ClassCache()
        text = "\n".join(
            json.dumps(class_to_json(crs_class(lam, cache=cache), lam), sort_keys=True)
            for lam in enumerate_partitions_no_ones(16)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.WEIGHT_16_SHA256


class TestLocalizationOracle:
    @staticmethod
    def at(cls, lam, d0):
        c = lam.codim
        return {u: dpoly_eval(cls.coefficient(TwoRowPartition(u, c - u)), d0) for u in range(c, (c - 1) // 2, -1)}

    def test_agrees_with_recursion_up_to_weight_10(self):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(10):
            cls = crs_class(lam, cache=cache)
            for d0 in range(lam.weight, 2 * lam.weight + 1):
                assert localization_class(lam, d0) == self.at(cls, lam, d0), (lam, d0)

    def test_damaged_entry_disagrees(self):
        # +1 on the d^0 coefficient of s_(2,0): the entry still passes every
        # check on load, and in verify only the pivot check at one exact point catches it
        lam = InputPartition((2, 2))
        doc = class_to_json(crs_class(lam), lam)
        assert doc["terms"][0]["rho"] == [2, 0]
        doc["terms"][0]["coeff"][0] = str(Fraction(doc["terms"][0]["coeff"][0]) + 1)
        assert localization_class(lam, 4) != self.at(class_from_json(doc), lam, 4)


class TestStructuralProperties:
    def test_pivot_independence_up_to_weight_10(self):
        # one step per distinct part; by induction every removal order agrees
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(10):
            reference = crs_class(lam, cache=cache)
            for m in set(lam.parts):
                assert class_via(lam, m, cache) == reference, (lam, m)
            assert crs_class(lam, PivotPolicy.max_part(), ClassCache()) == reference, lam

    def test_closed_form_oracle(self):
        # 40 and 60 are the single parts of the cold-classes benchmark, far above verify's reach
        for m in [*range(2, 13), 40, 60]:
            assert crs_class(InputPartition((m,))) == ym_class_closed_form(m), m

    def test_top_degree_oracle(self):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(12):
            cls = crs_class(lam, cache=cache)
            assert top_degree_slice(cls, lam.weight) == top_degree_class(lam), lam

    def test_d_degree_is_weight(self):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(12):
            cls = crs_class(lam, cache=cache)
            assert max(c.degree for _, c in cls.items()) == lam.weight

    def test_positive_leading_coefficients(self):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(12):
            for _, coeff in crs_class(lam, cache=cache).items():
                assert coeff.leading_coefficient > 0


def leading(coeff):
    return (coeff.degree, coeff.leading_coefficient)


class TestProductLeadingTerm:
    def test_part_i(self):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(12):
            if len(lam.parts) < 2:
                continue
            cls = crs_class(lam, cache=cache)
            for m in sorted(set(lam.parts)):
                e_m = lam.multiplicities[m]
                product = pieri_product(
                    crs_class(InputPartition((m,)), cache=cache),
                    crs_class(lam.remove(m), cache=cache),
                ).scale(Fraction(1, e_m))
                for rho, coeff in cls.items():
                    assert leading(product.coefficient(rho)) == leading(coeff), (lam, m, rho)

    def test_part_ii(self):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(12):
            if len(lam.parts) < 2:
                continue
            m = min(lam.parts)
            e_m = lam.multiplicities[m]
            ym = crs_class(InputPartition((m,)), cache=cache)
            single = SchurClass(
                m - 1, {TwoRowPartition(m - 1, 0): ym.coefficient((m - 1, 0))}
            )
            product = pieri_product(single, crs_class(lam.remove(m), cache=cache)).scale(
                Fraction(1, e_m)
            )
            for rho, coeff in crs_class(lam, cache=cache).items():
                assert leading(product.coefficient(rho)) == leading(coeff), (lam, m, rho)


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(8):
            crs_class(lam, cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        loaded = ClassCache.load(path)
        assert len(loaded) == len(cache)
        for lam in enumerate_partitions_no_ones(8):
            assert loaded.get(lam) == cache.get(lam)

    def test_corrupt_entries_dropped(self, tmp_path):
        cache = ClassCache()
        lam = InputPartition((2, 2))
        crs_class(lam, cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        doc = json.loads(path.read_text())
        doc["2,2"]["codim"] = 5  # weight no longer matches the partition
        doc["oops"] = {"codim": 0, "terms": []}
        path.write_text(json.dumps(doc))
        loaded = ClassCache.load(path)
        assert loaded.get(lam) is None
        # recomputation fills the gap with the correct class
        assert crs_class(lam, cache=loaded) == crs_class(lam)

    def test_json_schema_roundtrip(self):
        lam = InputPartition((3, 2))
        cls = crs_class(lam)
        doc = class_to_json(cls, lam)
        assert doc["partition"] == [3, 2]
        assert doc["codim"] == 3
        for entry in doc["terms"]:
            assert set(entry) == {"rho", "coeff"}
        assert class_from_json(doc) == cls

    def test_damaged_top_degree_dropped(self, tmp_path):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(6):
            crs_class(lam, cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        doc = json.loads(path.read_text())
        doc["3"]["terms"][0]["coeff"] += ["0", "1"]  # d-degree 5 > |lambda| = 3
        doc["4"]["terms"][0]["coeff"][-1] = "2"  # top slice 2 s_(3,0), not h_3 = s_(3,0)
        path.write_text(json.dumps(doc))
        loaded = ClassCache.load(path)
        assert len(loaded) == len(cache) - 2
        assert loaded.get(InputPartition((3,))) is None
        assert loaded.get(InputPartition((4,))) is None

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(8):
            crs_class(lam, cache=cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        crs_class(InputPartition((9,)), cache=cache)

        def crash(src, dst):
            raise OSError("rename failed")  # after the sibling file was written

        monkeypatch.setattr(crsplucker.crs.os, "replace", crash)
        with pytest.raises(OSError):
            cache.save(path)
        monkeypatch.undo()
        loaded = ClassCache.load(path)
        assert len(loaded) == len(cache) - 1
        for lam in enumerate_partitions_no_ones(8):
            assert loaded.get(lam) == cache.get(lam)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_save_to_loaded_file_writes_only_after_a_change(self, tmp_path):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(6):
            crs_class(lam, cache=cache)
        path, other = tmp_path / "cache.json", tmp_path / "other.json"
        cache.save(path)
        before = path.stat()
        loaded = ClassCache.load(path)
        loaded.save(path)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        loaded.save(other)
        assert ClassCache.load(other).get(InputPartition((2, 2))) == cache.get(InputPartition((2, 2)))
        crs_class(InputPartition((7,)), cache=loaded)
        loaded.save(path)
        assert path.stat().st_ino != before.st_ino
        assert ClassCache.load(path).get(InputPartition((7,))) is not None

    def test_file_is_compact_sorted_json(self, tmp_path):
        path = tmp_path / "cache.json"
        ClassCache().save(path)
        assert path.read_text() == "{}\n"
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(8):
            crs_class(lam, cache=cache)
        cache.save(path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        assert len(json.loads(text)) == len(cache)

    def test_memoization_shares_subpartitions(self):
        cache = ClassCache()
        crs_class(InputPartition((4, 3, 2)), cache=cache)
        # default pivot removes the smallest part, so (4,3) and (4,) appear
        assert cache.get(InputPartition((4, 3))) is not None
        assert cache.get(InputPartition((4,))) is not None
        # (3,2) is never a min-pivot subproblem of (4,3,2)
        assert cache.get(InputPartition((3, 2))) is None
