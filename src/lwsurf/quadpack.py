"""QUADPACK's adaptive quadrature QAGS, on many panels at once.

A port of ``dqagse`` with its rule ``dqk21``, the error-list ordering
``dqpsrt`` and the epsilon algorithm ``dqelg`` (Piessens,
de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*, Springer 1983).
Only the ranges lwsurf integrates over are served: a < b, both finite,
with epsabs > 0 and limit >= 1; an unbounded range is first mapped to
a finite one by its caller.  The integrand maps a float array to its
values.  Where it gives each float the bits it gives that float in an
array, ``panels`` returns on each panel the same ``(value, abserr)`` as
``scipy.integrate.quad`` with the same ``epsabs``, ``epsrel`` and
``limit``, bit for bit: the same nodes, the sums in the same order, the
same branches, and C's ``fmax``/``fmin`` where a NaN can reach them.  The
lists keep QUADPACK's 1-based indices; slot 0 is unused.

The rule is data, and one function, ``_rule``, applies it to an array of
panels at once.  dqagse's loop, ``_adaptive``, is a generator that asks
for the rule values of the intervals it needs, and ``panels`` runs it on
many panels in lockstep, applying the rule to each round's intervals of
all of them in one array pass.  A panel that meets a non-finite or
complex value gets a non-finite result, and nothing is raised.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["panels"]

_EPMACH = 2.220446049250313e-16      # d1mach(4) = 2**-52
_UFLOW = 2.2250738585072014e-308     # d1mach(1)
_OFLOW = 1.7976931348623157e308      # d1mach(2)
_TINY = _UFLOW / (50.0 * _EPMACH)    # the rules' resabs floor
_LIMEXP = 50                         # dqelg's epsilon-table length

# dqk21: 21-point Kronrod abscissae xgk(1..10) on (0, 1) (xgk(11) = 0) and
# weights wgk(1..11); the 10-point Gauss rule uses xgk(2), xgk(4), ...
# with weights wg(1..5)
_XGK21 = (0.995657163025808080735527280689003,
          0.973906528517171720077964012084452,
          0.930157491355708226001207180059508,
          0.865063366688984510732096688423493,
          0.780817726586416897063717578345042,
          0.679409568299024406234327365114874,
          0.562757134668604683339000099272694,
          0.433395394129247190799265943165784,
          0.294392862701460198131126603103866,
          0.148874338981631210884826001129720)
_WGK21 = (0.011694638867371874278064396062192,
          0.032558162307964727478818972459390,
          0.054755896574351996031381300244580,
          0.075039674810919952767043140916190,
          0.093125454583697605535065465083366,
          0.109387158802297641899210590325805,
          0.123491976262065851077958109831074,
          0.134709217311473325928054001771707,
          0.142775938577060080797094273138717,
          0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_WG10 = (0.066671344308688137593568809893332,
         0.149451349150580593145776339657697,
         0.219086362515982043995534934228163,
         0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)


def _terms(pairs) -> tuple:
    """(weights, rows) of a sum's (weight, row) terms, in the order
    QUADPACK adds them."""
    w, row = zip(*pairs)
    return np.array(w)[:, None], np.array(row)


# the node pairs centr -/+ hlgth*x, and each sum's terms over the rows of
# node values, row 0 the centre and row 1 + j pair j: resk and resabs add
# the centre, the Gauss pairs xgk(2), xgk(4), ..., then xgk(1), xgk(3),
# ...; resg the Gauss pairs; resasc the centre and the pairs in order
_X = np.array(_XGK21)[:, None]
_K = _terms([(_WGK21[10], 0), *((_WGK21[j], 1 + j) for j in
                                (1, 3, 5, 7, 9, 0, 2, 4, 6, 8))])
_G = _terms([(w, 2 + 2 * i) for i, w in enumerate(_WG10)])
_ASC = _terms((w, j) for j, w in enumerate((_WGK21[10], *_WGK21[:10])))


def _fmax(x: float, y: float) -> float:
    """C's fmax: a NaN argument yields the other one."""
    if x != x:
        return y
    return x if y != y or x >= y else y


def panels(f, a: np.ndarray, b: np.ndarray, epsabs: float, epsrel: float,
           limit: int) -> tuple:
    """dqagse on every panel (a[i], b[i]), a < b, at once, with an
    integrand ``f`` that maps a float array to its values: arrays
    (result, abserr) with the bits ``scipy.integrate.quad`` returns on
    each panel with the same ``epsabs``, ``epsrel`` and ``limit``, for an
    integrand that gives each float the bits of the array's element.
    +, -, *, / and abs round as Python floats do, so the sums are
    QUADPACK's.  Int and float32 values convert as floats do.

    The first rule runs on all panels in one array pass.  dqagse then
    bisects every panel that rule rejects in lockstep, each round's
    halves of all of them in one array pass, seeded with the first
    rule's values.  A panel whose rule meets a non-finite or complex
    value leaves the lockstep there with a non-finite result: the first
    rule's own, or NaN in a half.
    """
    with np.errstate(all="ignore"):
        *first, finite = _rule(f, a, b)
    result, abserr = first[0], first[1]
    rejected = np.flatnonzero(finite & ~_accepted(*first, epsabs, epsrel))
    steps, rules = {}, {}
    for i, values in zip(rejected.tolist(),
                         zip(*(x[rejected].tolist() for x in first))):
        steps[i] = _adaptive(float(a[i]), float(b[i]), epsabs, epsrel,
                             limit)
        next(steps[i])  # it asks for the panel's rule: the first one
        rules[i] = [values]
    while rules:
        halves = {}
        for i, values in rules.items():
            try:
                halves[i] = steps[i].send(values)
            except StopIteration as stop:
                result[i], abserr[i] = stop.value
        if not halves:
            break
        lo, hi = np.array(list(halves.values())).reshape(-1, 2).T
        with np.errstate(all="ignore"):
            *sums, finite = _rule(f, lo, hi)
        sums = list(zip(*(x.tolist() for x in sums)))
        finite = finite.reshape(-1, 2).all(axis=1).tolist()
        rules = {}
        for k, i in enumerate(halves):
            if finite[k]:
                rules[i] = sums[2 * k:2 * k + 2]
            else:
                result[i] = abserr[i] = math.nan
    return result, abserr


def _rule(f, a: np.ndarray, b: np.ndarray) -> tuple:
    """dqk21 on the panels (a, b), a <= b: arrays (result, abserr,
    resabs, resasc), and where all of a panel's values are finite.

    f maps the stacked rows of nodes at once.  Each sum is one
    np.add.accumulate down its rows of terms, which adds strictly in row
    order, so a panel gets the bits of QUADPACK's loop.  resg starts at
    its first term, not at 0.0 + it: only the sign of a zero differs,
    and it cannot reach abs(resk - resg).  The error's scaling power
    runs through np.float_power, which rounds as libm's pow, and only
    where it is below 1: elsewhere min(1, .) is 1, as where C's pow
    overflows or the ratio is NaN.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)  # >= 0, so it is also dhlgth
    d = hlgth * _X
    nodes = np.concatenate((centr[None], centr - d, centr + d))
    fv = np.asarray(f(nodes.ravel()))
    if np.iscomplexobj(fv):  # a complex value has no float: NaN, as libm
        fv = np.full(fv.shape, math.nan)
    fv = fv.astype(float, copy=False).reshape(nodes.shape)

    def total(terms, v):
        """The terms' sum over the centre's row of v and each pair's
        two rows added."""
        w, row = terms
        rows = np.concatenate((v[:1], v[1:11] + v[11:]))
        return np.add.accumulate(w * rows[row])[-1]

    resk = total(_K, fv)
    resabs = total(_K, np.abs(fv)) * hlgth
    resasc = total(_ASC, np.abs(fv - resk * 0.5)) * hlgth
    abserr = np.abs((resk - total(_G, fv)) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = 200.0 * abserr / resasc
    below = scaled & (ratio < 1.0)
    factor = np.ones_like(ratio)
    factor[below] = np.float_power(ratio[below], 1.5)
    abserr = np.where(scaled, resasc * factor, abserr)
    floor = (_EPMACH * 50.0) * resabs
    # QUADPACK's max(floor, abserr): floor unless abserr is larger
    abserr = np.where((resabs > _TINY) & ~(abserr > floor), floor, abserr)
    return (resk * hlgth, abserr, resabs, resasc,
            np.isfinite(fv).all(axis=0))


def _accepted(result, abserr, defabs, resabs, epsabs: float,
              epsrel: float):
    """dqagse's test that its first rule application is the answer, on
    floats or arrays.  ``epsabs`` is positive, so ``max(epsabs, x)`` is
    C's fmax there."""
    errbnd = np.fmax(epsabs, epsrel * abs(result))
    return ((abserr == 0.0) | (abserr <= errbnd) & (abserr != resabs)
            | (abserr <= (100.0 * _EPMACH) * defabs) & (abserr > errbnd))


def _adaptive(a: float, b: float, epsabs: float, epsrel: float,
              limit: int):
    """dqagse's bisection with epsilon extrapolation, as a
    generator: it yields the intervals whose rule values it needs, first
    ((a, b),) and then each bisection's two halves, is sent their rules'
    (result, abserr, resabs, resasc) tuples, and returns (value, abserr).

    ``epsabs`` is positive, so ``max(epsabs, x)`` is C's fmax there, and
    the tolerances are never too small for dqagse (ier = 6).
    """
    # first approximation to the integral
    (result, abserr, defabs, resabs), = yield ((a, b),)
    if limit == 1 or _accepted(result, abserr, defabs, resabs, epsabs,
                               epsrel):
        return result, abserr
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    # dqelg's table has limexp + 2 entries, but a NaN area never
    # converges, so numrl2 can grow by one per subdivision; C then writes
    # past the table's end
    rlist2 = [0.0] * (max(limit, _LIMEXP) + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax, maxerr = abserr, 1
    area, errsum = result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    ier = ierro = iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, resabs, defab1), (area2, error2, resabs, defab2) \
            = yield (a1, b1), (a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if (max(abs(a1), abs(b2))
                <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
            ier = 4  # bad integrand behaviour at a point
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        errmax = elist[maxerr]
        if errsum <= errbnd:
            return _sum(rlist, last), errsum
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and not erlarg <= ertest:
            # the smallest interval has the largest error: bisect the
            # larger ones first while there are any
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum
    # final result and error estimate
    if abserr == _OFLOW:
        return _sum(rlist, last), errsum
    if ier + ierro == 0:
        return result, abserr
    if ierro == 3:
        abserr = abserr + correc
    if result != 0.0 and area != 0.0:
        if abserr / abs(result) > errsum / abs(area):
            return _sum(rlist, last), errsum
    elif abserr > errsum:
        return _sum(rlist, last), errsum
    return result, abserr


def _sum(rlist: list, last: int) -> float:
    """rlist(1) + ... + rlist(last) in order (not Python's sum, which
    compensates on 3.12 and later)."""
    total = 0.0
    for k in range(1, last + 1):
        total = total + rlist[k]
    return total


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple:
    """dqpsrt: keep iord sorted by descending error; (maxerr, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        return iord[nrmax], nrmax
    errmax = elist[maxerr]
    # subdivision raised the error: move it up past nrmax
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    # only the jupbn largest errors are kept in order, as many as
    # subdivisions remain
    jupbn = limit + 3 - last if last > limit // 2 + 2 else last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmax top-down, then errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            return iord[nrmax], nrmax
        iord[i - 1] = isucc
    iord[jbnd] = maxerr
    iord[jupbn] = last
    return iord[nrmax], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple:
    """dqelg, Wynn's epsilon algorithm on epstab(1..n).

    Returns (n, result, abserr, nres); epstab and res3la change in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = _fmax(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = _fmax(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy
            result = res
            abserr = err2 + err3
            return (n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)),
                    nres)
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = _fmax(e1abs, abs(e3)) * _EPMACH
        # two close elements, or irregular behaviour: drop the table's
        # tail (with C's fmax, err <= tol whenever a delta is 0, and
        # epsinf > 1e-4 implies ss != 0, so nothing divides by zero)
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)), nres
