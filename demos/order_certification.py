"""Certify claimed suppression orders by proving nested word integrals zero.

Every Dyson term of order n carries a word of n channel labels whose
coefficient is a nested integral of switching-function products. A channel is
suppressed to order d exactly when all its words of length <= d integrate to
zero. This demo runs the certifier on a few sequences and prints the row
table, the first nonzero witness above each claimed order, and the proof
line: the primes whose residues vanish for every zero word, and log2 of
their product against the bound it must beat.

The last section re-checks an odd inner order in "numeric-footnote" mode,
where the z channel is claimed at min(2*N1+1, N2) instead of min(N1+1, N2).

Equivalent JSON output: ddbound verify orders --qdd 2 2 --nmax 4
"""

from ddbound.dyson import verify_orders


def show(n1, n2, n_max, mode="analytic", backend="auto"):
    cert = verify_orders(n1, n2, n_max=n_max, mode=mode, backend=backend)
    d = cert.orders
    print(
        f"QDD({n1},{n2}) mode={cert.mode} backend={cert.backend}: "
        f"claimed d = (x:{d.d_x}, y:{d.d_y}, z:{d.d_z})"
    )
    for row in cert.rows:
        mark = "required zero" if row["expected_zero"] else "witness probe"
        extra = ""
        if row.get("witness"):
            w = row["witness"]
            extra = f"  largest word {w['word']!r} = {w['value']}"
        print(
            f"  channel {row['channel']}, length {row['n']}: "
            f"max |integral| = {row['max_abs']:.3e}  ({mark}){extra}"
        )
    print(f"  witness status: {dict(cert.witness_status)}")
    proof = cert.proof
    beats = ">" if proof["status"] == "proved" else "<="
    print(
        f"  proof: {proof['status']}, zeros vanish mod {len(proof['primes'])} "
        f"prime(s) p = 1 (mod L) below 2^26; log2 of their product "
        f"{proof['log2_product']} {beats} bound {proof['log2_bound']}"
    )
    print(f"  certified: {cert.certified}\n")


if __name__ == "__main__":
    show(1, 1, n_max=3, backend="rational")
    show(2, 2, n_max=3, backend="rational")
    show(3, 3, n_max=4, backend="mp")
    # odd N1 with a deep outer layer: footnote mode claims two extra z orders
    show(1, 4, n_max=3, mode="analytic")
    show(1, 4, n_max=4, mode="numeric-footnote")
