"""Frozen oracle values for the test suite.

Every constant below was computed with mpmath at 40-digit working precision
(an implementation completely independent of this package) and frozen here.
Run ``python tests/oracles.py`` to regenerate the values, or with
``--write-table PATH`` to regenerate the packaged zero-ordinate table.
"""

# --- special function values -------------------------------------------------

LOG_GAMMA_HALF = 0.57236494292470009          # ln sqrt(pi)
GAMMA_HALF = 1.7724538509055160               # sqrt(pi)
GAMMA_MINUS_HALF = -3.5449077018110321        # -2 sqrt(pi), via reflection

LOG_GAMMA_SAMPLES = [
    (complex(0.5, 0.0), complex(0.57236494292470009, 0.0)),
    (complex(1.5, 3.0), complex(-2.6811386746740563, 1.7154669204667089)),
    (complex(7.0, -20.0), complex(-10.914367798993646, -49.088306567832062)),
    (complex(0.5, 50.0), complex(-77.620877806540158, 145.60198362418754)),
    (complex(20.0, 50.0), complex(-0.86344056635151902, 172.52086762916172)),
    (complex(2.25, -14.134725), complex(-16.644634480523851, -25.946736051522169)),
    (complex(12.5, 0.125), complex(18.733696857851861, 0.31065171298873849)),
]

GAMMA_SAMPLES = [
    (complex(-0.5, 0.0), complex(-3.5449077018110321, 0.0)),
    (complex(0.25, 0.75), complex(0.19333666545026184, -0.82145159070746165)),
    (complex(-1.5, 2.0), complex(-0.0018843965411520957, 0.020932721986921831)),
    (complex(0.1, -30.0), complex(-1.4520466067828585e-21, -1.6539324908834061e-21)),
]

# --- zeta / eta values -------------------------------------------------------

ETA_HALF = 0.60489864342163037
ZETA_HALF = -1.4603545088095868
ZETA_TWO = 1.6449340668482264                 # pi^2 / 6
ZETA_THREE = 1.2020569031595943

ZETA_SAMPLES = [
    (complex(2.0, 0.0), complex(1.6449340668482264, 0.0)),
    (complex(3.0, 0.0), complex(1.2020569031595943, 0.0)),
    (complex(2.0, 5.0), complex(0.85096294362426296, 0.098996946134831347)),
    (complex(0.75, 5.0), complex(0.73221224880428829, 0.20379320276412618)),
    (complex(0.3, 8.0), complex(1.2611291424060331, 0.40789569911735878)),
    (complex(0.5, 10.0), complex(1.5448952202967528, -0.11533646527127338)),
    (complex(0.1, 2.0), complex(0.33657633446618249, -0.24920514492863365)),
    (complex(0.9, -27.5), complex(2.1538047151732932, -0.19681047135435951)),
]

# zeta(s) and zeta'(s): one point at the first zero, and two beyond the
# |Im s| range of ZETA_SAMPLES
ZETA_DERIV_SAMPLES = [
    (complex(0.5, 14.134725141734695),
     complex(-1.0483650805588237e-16, 6.5852592776051578e-16),
     complex(0.78329651186703112, 0.12469982974817057)),
    (complex(0.25, 40.0),
     complex(0.73440570416795184, -1.5656813889303969),
     complex(0.30321399160920767, 2.6118875624984071)),
    (complex(0.8, 95.0),
     complex(0.38135486260134340, 0.047062918902477926),
     complex(0.24242404320624285, -0.28982432087742234)),
    (complex(0.5, 3.0),
     complex(0.53273667097423288, -0.078896513425833383),
     complex(0.19175988409272137, -0.073135728865928932)),
]

# zeta(s) beyond the packaged table's range, for the accelerated series whose
# length grows with |Im s|
ZETA_LARGE_T_SAMPLES = [
    (complex(0.1, 200.0), complex(8.8146448719928374, -8.8694015769970535)),
    (complex(0.5, 200.0), complex(4.5905773749690527, -3.1894012475791441)),
    (complex(0.9, 200.0), complex(2.8534020853413387, -1.2931956497311992)),
    (complex(0.1, 1000.0), complex(-4.5928867325910193, 5.3169645753948028)),
    (complex(0.5, 1000.0), complex(0.35633436719439606, 0.93199783123299367)),
    (complex(0.9, 1000.0), complex(0.91708641384307895, 0.11807465295533802)),
    (complex(0.1, 3000.0), complex(-2.2454449056888056, 19.657801291784729)),
    (complex(0.5, 3000.0), complex(1.5904730146408154, 3.1846124073908223)),
    (complex(0.9, 3000.0), complex(1.4471210816502171, 0.84928392929806434)),
]

# term-by-term high-precision summation, sum_{k<=1000} k^(-(0.5+14.134725i))
ZETA_PARTIAL_Z1 = complex(0.5, 14.134725)
ZETA_PARTIAL_Z1_N1000 = complex(-0.64438005252649494, -2.1415757099559568)

# plain alternating partial sum at z = 1/2, n = 10^4, and its true distance
# from eta(1/2)
ETA_PARTIAL_HALF_N10000 = 0.59989876842162998
ETA_PARTIAL_HALF_DELTA = 0.0049998750000003906

# regularized partial sum at z = 1/2, n = 10^4, and its distance from zeta(1/2)
ZETA_HAT_REG_HALF_N10000 = -1.4553545504762535
ZETA_HAT_REG_HALF_DELTA = 0.0049999583333333594

# --- functional equation -----------------------------------------------------

H_SAMPLES = [
    (complex(0.5, 0.0), complex(1.0, 0.0)),
    (complex(0.5, 14.134725141734694), complex(-0.95056441998635168, -0.31052742786428837)),
    (complex(0.75, 5.0), complex(0.84803159367546845, 0.63446529945221268)),
    (complex(0.3, 8.0), complex(0.88517955148481192, 0.56361667058888225)),
    (complex(0.1, 30.0), complex(-1.7176833705463097, 0.73630939033398698)),
    (complex(0.9, -12.0), complex(0.23686501538304796, 0.73476504996474883)),
]

# |H_n - H| at z = 0.75+5i from independently summed regularized partial sums
# (n = 10^4 and n = 65536); the finite-n ratio converges slowly here because
# the 1-z side decays like n^(-1/4).
H_RATIO_075_5I_N10000 = complex(0.92531666914005974, 0.62547705701873020)
H_RATIO_075_5I_DELTA_N10000 = 0.077805985577014737
H_RATIO_075_5I_DELTA_N65536 = 0.044645092190373817

# --- zeros ---------------------------------------------------------------

ZERO_ORDINATES_FIRST10 = [
    14.1347251417346938,
    21.0220396387715550,
    25.0108575801456888,
    30.4248761258595132,
    32.9350615877391897,
    37.5861781588256713,
    40.9187190121474952,
    43.3270732809149995,
    48.0051508811671597,
    49.7738324776723022,
]

# first ordinate re-derived by bisecting the sign of the rotated (real-valued)
# zeta on the critical line -- a structurally different oracle that agrees
# with the table above to all shown digits
ZERO1_BISECTION = 14.1347251417346938

# Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + i t) (mpmath.siegelz), real on the
# critical line, at points between zeros across the packaged table's range,
# and beyond it, where the Borwein series takes 912 to 8932 terms
HARDY_Z_SAMPLES = [
    (3.0, -0.53854713854170720),
    (17.5, 2.3018457553350569),
    (50.2, -0.66267143227814240),
    (99.5, 2.0538064677010744),
    (1000.3, 2.1949783216993582),
    (3000.7, 2.7492704289038950),
    (10000.3, 0.53573750872000793),
]

# Riemann-Siegel theta(t) (mpmath.siegeltheta), at the cut-off of its
# asymptotic series (t = 10), at the first zero, and across the scan range
THETA_SAMPLES = [
    (10.0, -3.0670743962898952917),
    (14.1347251417346938, -1.7286702466758374916),
    (50.2, 26.668978737786358464),
    (99.5, 87.280969043090791617),
    (1000.3, 2035.3069322614196229),
    (10000.3, 31863.029702581568219),
]

# zhat_n(z) = zeta(z) - zeta(z, n+1) - n^(1-z)/(1-z), with zeta(z, n+1) the
# Hurwitz tail, at the first mark and the last of the 4096 * 2^j doubling
# schedule: an oracle for the Euler-Maclaurin steps that sums no terms
ZHAT_SCHEDULE_SAMPLES = [
    (complex(0.5, 14.134725141734695), 4096,
     complex(-0.0018555784902946513, 0.0075887760146260071)),
    (complex(0.5, 14.134725141734695), 1048576,
     complex(0.00019043390340428429, -0.00044961480140307933)),
    (complex(0.25, -20.0), 4096, complex(0.16077782080364450, 1.3616500825467165)),
    (complex(0.25, -20.0), 1048576, complex(0.23349179704854361, 1.3636117645993079)),
    (complex(0.1, 3000.0), 4096, complex(-2.4579424402954087, 19.603680230990251)),
    (complex(0.1, 3000.0), 1048576, complex(-2.1317078518950538, 19.605946825725147)),
]

# --- doubling constants at the first zero --------------------------------

RHO1 = complex(0.5, 14.1347251417346938)
TWO_POW_MINUS_RHO1 = complex(-0.65857071153755334, 0.25745799250541963)
TWO_POW_ONE_MINUS_RHO1 = complex(-1.3171414230751067, 0.51491598501083927)
TWO_POW_ONE_MINUS_2RHO1 = complex(0.73486152838031715, -0.67821717326129713)


def _regenerate(write_table: str | None) -> None:
    import mpmath as mp

    mp.mp.dps = 40

    def f(x, digits=17):
        return mp.nstr(x, digits, strip_zeros=False)

    def cpair(z, digits=17):
        return f"complex({f(mp.re(z), digits)}, {f(mp.im(z), digits)})"

    print("LOG_GAMMA_HALF =", f(mp.loggamma(mp.mpf('0.5'))))
    print("GAMMA_HALF =", f(mp.gamma(mp.mpf('0.5'))))
    print("GAMMA_MINUS_HALF =", f(mp.gamma(mp.mpf('-0.5'))))
    for z, _ in LOG_GAMMA_SAMPLES:
        print("   loggamma", cpair(mp.mpc(z)), "->", cpair(mp.loggamma(mp.mpc(z))))
    for z, _ in GAMMA_SAMPLES:
        print("   gamma", cpair(mp.mpc(z)), "->", cpair(mp.gamma(mp.mpc(z))))

    print("ETA_HALF =", f(mp.altzeta(mp.mpf('0.5'))))
    print("ZETA_HALF =", f(mp.zeta(mp.mpf('0.5'))))
    print("ZETA_TWO =", f(mp.zeta(2)))
    print("ZETA_THREE =", f(mp.zeta(3)))
    for z, _ in ZETA_SAMPLES:
        print("   zeta", cpair(mp.mpc(z)), "->", cpair(mp.zeta(mp.mpc(z))))
    for z, _, _ in ZETA_DERIV_SAMPLES:
        s = mp.mpc(z)
        print("   zeta, zeta'", cpair(s), "->", cpair(mp.zeta(s)),
              cpair(mp.zeta(s, derivative=1)))
    for z, _ in ZETA_LARGE_T_SAMPLES:
        print("   zeta", cpair(mp.mpc(z)), "->", cpair(mp.zeta(mp.mpc(z))))

    z1 = mp.mpc('0.5', '14.134725')
    print("ZETA_PARTIAL_Z1_N1000 =",
          cpair(mp.fsum(k ** (-z1) for k in range(1, 1001))))
    eta_n = mp.fsum((-1) ** (k - 1) * mp.mpf(k) ** mp.mpf('-0.5') for k in range(1, 10001))
    print("ETA_PARTIAL_HALF_N10000 =", f(eta_n))
    print("ETA_PARTIAL_HALF_DELTA =", f(abs(eta_n - mp.altzeta(mp.mpf('0.5')))))
    reg_n = (mp.fsum(mp.mpf(k) ** mp.mpf('-0.5') for k in range(1, 10001))
             - mp.mpf(10000) ** mp.mpf('0.5') / mp.mpf('0.5'))
    print("ZETA_HAT_REG_HALF_N10000 =", f(reg_n))
    print("ZETA_HAT_REG_HALF_DELTA =", f(abs(reg_n - mp.zeta(mp.mpf('0.5')))))

    def h_of(z):
        return 2 * mp.gamma(1 - z) * (2 * mp.pi) ** (z - 1) * mp.sin(mp.pi * z / 2)

    for z, _ in H_SAMPLES:
        print("   H", cpair(mp.mpc(z)), "->", cpair(h_of(mp.mpc(z))))

    def zhat_n(z, n):
        s = mp.fsum(mp.mpf(k) ** (-z) for k in range(1, n + 1))
        return s - mp.mpf(n) ** (1 - z) / (1 - z)

    z = mp.mpc('0.75', '5')
    hn = zhat_n(z, 10000) / zhat_n(1 - z, 10000)
    print("H_RATIO_075_5I_N10000 =", cpair(hn))
    print("H_RATIO_075_5I_DELTA_N10000 =", f(abs(hn - h_of(z))))
    hn2 = zhat_n(z, 65536) / zhat_n(1 - z, 65536)
    print("H_RATIO_075_5I_DELTA_N65536 =", f(abs(hn2 - h_of(z))))

    ordinates = []
    k = 1
    while True:
        t = mp.im(mp.zetazero(k))
        if t >= 100:
            break
        ordinates.append(mp.nstr(t, 18, strip_zeros=False))
        k += 1
    print("ZERO_ORDINATES (t < 100):")
    for t in ordinates:
        print("   ", t)

    # rotated-zeta bisection oracle for the first ordinate: the Hardy Z
    # function is real on the line and changes sign exactly at the zeros
    a, b = mp.mpf(14.0), mp.mpf(14.3)
    sign_a = mp.sign(mp.siegelz(a))
    for _ in range(80):
        mid = (a + b) / 2
        if mp.sign(mp.siegelz(mid)) == sign_a:
            a = mid
        else:
            b = mid
    print("ZERO1_BISECTION =", f((a + b) / 2, 18))

    for t, _ in HARDY_Z_SAMPLES:
        print("   siegelz", f(mp.mpf(t)), "->", f(mp.siegelz(mp.mpf(t))))
    for t, _ in THETA_SAMPLES:
        print("   siegeltheta", f(mp.mpf(t)), "->", f(mp.siegeltheta(mp.mpf(t)), 20))

    for z, n, _ in ZHAT_SCHEDULE_SAMPLES:
        s = mp.mpc(z)
        zhat = mp.zeta(s) - mp.zeta(s, n + 1) - mp.mpf(n) ** (1 - s) / (1 - s)
        print("   zhat_n", cpair(s), n, "->", cpair(zhat))

    rho1 = mp.zetazero(1)
    print("RHO1 =", cpair(rho1, 18))
    print("TWO_POW_MINUS_RHO1 =", cpair(2 ** (-rho1)))
    print("TWO_POW_ONE_MINUS_RHO1 =", cpair(2 ** (1 - rho1)))
    print("TWO_POW_ONE_MINUS_2RHO1 =", cpair(2 ** (1 - 2 * rho1)))

    if write_table:
        header = (
            "# Ordinates t_k of the nontrivial zeros rho_k = 1/2 + i t_k of the Riemann\n"
            "# zeta function with 0 < t_k < 100, strictly increasing, 18 significant\n"
            "# digits.  Computed independently with mpmath (30-digit working precision)\n"
            "# and consistent with the published high-precision tables.\n"
        )
        with open(write_table, "w", encoding="utf-8") as handle:
            handle.write(header)
            handle.write("\n".join(ordinates) + "\n")
        print("wrote", write_table)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-table", default=None,
                        help="also write the zero-ordinate table to this path")
    args = parser.parse_args()
    _regenerate(args.write_table)
