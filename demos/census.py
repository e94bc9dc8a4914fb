"""Enumerate every twisting map between two copies of k[Z2], by field."""

from twistlab import (
    CENSUS_ERRATA,
    GF,
    QQ,
    census_rows,
    census_tsv,
    standard_algebra,
    twisted_product,
    verify_twisting,
)


def main() -> None:
    print("twisting-map census for k[Z2] (x) k[Z2]")
    print()
    for p in (2, 3, 5, 7):
        rows = census_rows(GF(p))
        print(f"GF({p}): {len(rows)} maps")
    print()

    print("full table over GF(5):")
    print(census_tsv(census_rows(GF(5)), GF(5)))

    print("symbolic table over Q (lines left parametric):")
    print(census_tsv(census_rows(QQ), QQ))

    # each member really is a twisting map and its product associative
    f = GF(5)
    z2 = standard_algebra("group_algebra_z2", f)
    for row in census_rows(f):
        report = verify_twisting(z2, z2, row["map"].matrix)
        assert all(report[k] for k in ("tw1", "tw2", "tw3")), row["family"]
        twisted_product(row["map"])
    print("all GF(5) members pass (tw1)-(tw3) and give associative products")
    print()

    print("errata found while cross-checking the printed table:")
    for e in CENSUS_ERRATA:
        print(f"  [{e['id']}]")
        print(f"    printed:  {e['printed']}")
        print(f"    computed: {e['computed']}")


if __name__ == "__main__":
    main()
