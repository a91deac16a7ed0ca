"""The paper's other forms of the subgroup counts, as test-side statements.

The library computes every count through its per-prime engine and keeps the
divisor sums `count_total` and `count_cyclic`, and the by-order and by-type
sums as one walk that returns every order and type at once, for `verify`.
The forms below are further identities from the paper: the by-order and
by-type sums for one value each, as the paper states them, the gcd double
sums, the cyclic count by order, the prime-power closed forms and the
per-row offset form of a tuple's element set.  Nothing in the library calls
them; the tests check them against the engine, the divisor sums and the
brute-force oracle.
"""

from math import gcd, lcm

from ranktwo.arith import check_nat, checked_add, divisors, euler_phi, is_prime
from ranktwo.counting import TypeKey
from ranktwo.goursat import GoursatTuple, check_membership


def count_by_order_reference(m: int, n: int, delta: int) -> int:
    """Number of subgroups of order delta, as the sum of phi(ij/delta) over
    i | gcd(m, delta), j | gcd(n, delta) with delta | ij; 0 when delta does
    not divide m*n."""
    check_nat(m, "m")
    check_nat(n, "n")
    check_nat(delta, "delta")
    total = 0
    divs_n = divisors(gcd(n, delta))
    for i in divisors(gcd(m, delta)):
        for j in divs_n:
            if (i * j) % delta == 0:
                total = checked_add(total, euler_phi(i * j // delta))
    return total


def count_by_type_reference(m: int, n: int, key: TypeKey) -> int:
    """Number of subgroups isomorphic to Z_A x Z_B, as the sum of phi(ij/AB)
    over i | m, j | n with AB | ij and lcm(i, j) = B; 0 when A does not
    divide gcd(m, n)."""
    check_nat(m, "m")
    check_nat(n, "n")
    A, B = key.A, key.B
    if gcd(m, n) % A != 0:
        return 0
    ab = A * B
    total = 0
    divs_n = divisors(n)
    for i in divisors(m):
        for j in divs_n:
            if (i * j) % ab == 0 and lcm(i, j) == B:
                total = checked_add(total, euler_phi(i * j // ab))
    return total


def count_total_reference(m: int, n: int) -> int:
    """Total number of subgroups, as the gcd double sum over i | m, j | n."""
    check_nat(m, "m")
    check_nat(n, "n")
    total = 0
    divs_n = divisors(n)
    for i in divisors(m):
        for j in divs_n:
            total = checked_add(total, gcd(i, j))
    return total


def count_total_prime_power(p: int, a: int, b: int) -> int:
    """Total subgroup count of Z_{p^a} x Z_{p^b}, 1 <= a <= b, in closed form."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    check_nat(a, "a")
    check_nat(b, "b")
    if a > b:
        raise ValueError(f"exponents must be ordered: a = {a} > b = {b}")
    num = (
        (b - a + 1) * p ** (a + 2)
        - (b - a - 1) * p ** (a + 1)
        - (a + b + 3) * p
        + (a + b + 1)
    )
    den = (p - 1) ** 2
    assert num % den == 0
    return num // den


def count_by_order_prime_power(p: int, a: int, b: int, c: int) -> int:
    """Number of order-p^c subgroups of Z_{p^a} x Z_{p^b}, 1 <= a <= b, 0 <= c <= a+b."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    check_nat(a, "a")
    check_nat(b, "b")
    if a > b:
        raise ValueError(f"exponents must be ordered: a = {a} > b = {b}")
    if c < 0 or c > a + b:
        raise ValueError(f"c = {c} outside [0, {a + b}]")
    if c <= a:
        k = c
    elif c <= b:
        k = a
    else:
        k = a + b - c
    return (p ** (k + 1) - 1) // (p - 1)


def count_cyclic_reference(m: int, n: int) -> int:
    """Number of cyclic subgroups, as the phi(gcd(i,j)) double sum."""
    check_nat(m, "m")
    check_nat(n, "n")
    total = 0
    divs_n = divisors(n)
    for i in divisors(m):
        for j in divs_n:
            total = checked_add(total, euler_phi(gcd(i, j)))
    return total


def count_cyclic_by_order(m: int, n: int, delta: int) -> int:
    """Number of cyclic subgroups of order delta."""
    check_nat(m, "m")
    check_nat(n, "n")
    check_nat(delta, "delta")
    total = 0
    divs_n = divisors(n)
    for i in divisors(m):
        for j in divs_n:
            if lcm(i, j) == delta:
                total = checked_add(total, euler_phi(gcd(i, j)))
    return total


def offset_form(m: int, n: int, t: GoursatTuple) -> list[tuple[int, int]]:
    """Per-row offsets (i, j_i) with j_i = -floor(i*ell*d/c).

    With j ranging over [j_i, j_i + d - 1] the unreduced second coordinate
    i*ell*n/c + j*n/d stays inside [0, n - 1].
    """
    check_membership(m, n, t)
    return [(i, -((i * t.ell * t.d) // t.c)) for i in range(t.a)]
