/* GKO elimination on Cauchy-type generators: every step of gko_factor, and
 * the diagonal blocks of the triangular solves that follow it.
 *
 * structsolve.cauchy_gko compiles this file with -ffp-contract=off and calls
 * gko_eliminate and tri_block_solve through ctypes.  The caller allocates
 * every array; nothing here allocates.  Complex numbers are (re, im) pairs
 * of doubles, the layout of numpy's complex128.
 *
 * Quotients use numpy's Smith division, so a quotient of the same operands
 * rounds as numpy's does.  Products are (ac - bd) + (ad + bc)i with no fused
 * multiply-add.  Magnitudes are sqrt(re^2 + im^2) inside a range where the
 * squares can neither overflow nor lose the result, and hypot outside it;
 * they can differ from numpy's hypot by an ulp or two.  Argmax scans take
 * the first maximum (the smallest index).
 *
 * L and U share one n x n array, LU, as in LAPACK's xGETRF: L strictly
 * below the diagonal, its unit diagonal implied, and U on and above it.
 * Each elimination step describes the two sides of the matrix with one
 * descriptor type, side: the rows (nodes t, generators phi, the recovered
 * column, L, pidx) and the columns (nodes s, psi^T, the recovered row, U,
 * cidx).  A column interchange on R is a row interchange on R^T, whose
 * generators are (psi^T, phi^T), so recovering a line, scanning it and
 * updating past the pivot are each one routine for both sides.  What
 * differs between the sides is which node leads the gap (t_j - s_k for the
 * column, t_k - s_j for the row), whether the factor's entries are divided
 * by the pivot, and where a line of L or U, or of inv_gap, starts and how
 * far apart its entries are.  A step picks the side whose line moved and
 * recovers the other side from it.
 *
 * The loops over the entries of a line are written for the vectoriser, and
 * give the same bits at every vector width:
 *  - Smith division selects its operands instead of branching (see
 *    prepare), so a quotient has the bits of numpy's.  No division in a
 *    loop needs numpy's zero-divisor path: CauchyNodes refuses nodes with
 *    t_i close to s_j, so no gap is zero, and a step stops on a pivot that
 *    is not normal, so the pivot is never zero.
 *    v_kk's quotient, once a step, may divide by zero, but where it is not
 *    finite it becomes +inf, whichever path numpy would take.
 *  - A magnitude is sqrt(re^2 + im^2) with a flag for sums of squares
 *    outside cmag's range, NaN included (quick_mag).  A pass that only
 *    reads is redone with cmag when any entry is flagged, so every
 *    magnitude is cmag's.
 *  - Sums over the entries of a line past the pivot k (the hatted norms,
 *    ||L||_F and ||U||_F) run in HAT_LANES interleaved partial sums: entry
 *    j goes to sum (j - k - 1) mod HAT_LANES.  The partial sums are added
 *    in lane order, then to the step's running total.  The chunks of
 *    HAT_LANES entries are vectorised; the last, shorter chunk runs in one
 *    scalar copy with cmag's magnitudes.  The argmax keeps a (largest,
 *    first index) pair per lane and merges them so that the smallest index
 *    wins a tie.
 *  - The side is a constant of each inlined pass, and alpha = 2, the
 *    displacement rank of every Toeplitz input, has its own copy of the
 *    step, the only one with AVX-512F and AVX2 clones.  Only the lane-summed
 *    norms differ from one running sum over the entries, at rounding level.
 *
 * Besides the factors, a step records only what the growth report reads
 * per step: the pivot, v_kk and, when asked, the hat ratio.  It adds the
 * squares of its entries of L and U, and of their hatted entries, to four
 * running sums, from which gko_eliminate returns ||L||_F, ||U||_F,
 * ||Lhat||_F / ||L||_F and ||Uhat||_F / ||U||_F finished.  The entries of U
 * and the hatted entries of U and of the hat ratio scale with the
 * generators, so their squares are summed on the entries times u_scale, a
 * power of two that gko_eliminate picks near one over the largest entry of
 * R's first column and row (see pick_u_scale): the squares then neither
 * underflow nor overflow where the entries themselves do not.  Scaling by a
 * power of two is exact, so in range the sums are the plain ones times
 * u_scale^2; ||U||_F, with u_scale divided out, has the bits of the plain
 * norm, and the U ratio, a quotient of two scaled roots, stays finite where
 * ||Uhat||_F would overflow.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <string.h>

#define PIVOT_NONE 0
#define PIVOT_PARTIAL_ROW 1
#define PIVOT_ROW1_COL1 2

/* a sum of squares inside [2^-968, 2^968] neither overflowed nor lost the
 * smaller square to underflow, so sqrt(sum) is accurate */
#define MAG_SQ_MIN 0x1p-968
#define MAG_SQ_MAX 0x1p968

typedef struct {
    double re, im;
} cplx;

static inline cplx csub(cplx a, cplx b)
{
    return (cplx){a.re - b.re, a.im - b.im};
}

static inline cplx cmul(cplx a, cplx b)
{
    return (cplx){a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

static inline double cmag(cplx z)
{
    double sq = z.re * z.re + z.im * z.im;
    if (sq >= MAG_SQ_MIN && sq <= MAG_SQ_MAX)
        return sqrt(sq);
    return hypot(z.re, z.im);
}

/* numpy's Smith division a / b, for b != 0.  Where |b.re| >= |b.im| it is
 *   ((a.re + a.im rat) scl, (a.im - a.re rat) scl),
 *   rat = b.im / b.re, scl = 1 / (b.re + b.im rat);
 * where the imaginary part is major, numpy's formulas are these same
 * operations on a (-i) / b (-i), whose divisor's major part is real.  A
 * rotation by -i swaps the parts and negates one, which is exact, so a
 * quotient rotates both operands where the imaginary part is major and
 * divides as for a real major part.  cdiv rotates both operands before it
 * divides: with a division between selects on one condition, GCC merges
 * the selects into a branch and leaves a loop of quotients scalar.  rat
 * and scl depend on the divisor alone, so dividing many numerators by one
 * value costs products.
 *
 * Only v_kk's quotient may divide by zero (where phi_k psi_k = 0) or
 * overflow, and the step flags either result as +inf.  No other divisor is
 * zero: no gap is, because CauchyNodes refuses nodes with t_i close to s_j;
 * a step stops before dividing by a pivot that is not normal; and
 * solve_with_factors refuses a zero on U's diagonal. */
typedef struct {
    int real_major;
    double rat, scl;
} divisor;

/* z, or z (-i) = (im, -re) when the imaginary part is the major one */
static inline cplx rotate(cplx z, int real_major)
{
    return (cplx){real_major ? z.re : z.im, real_major ? z.im : -z.re};
}

/* r / b for a rotated numerator r and a divisor b with a real major part */
static inline cplx quotient(cplx r, double rat, double scl)
{
    return (cplx){(r.re + r.im * rat) * scl, (r.im - r.re * rat) * scl};
}

static inline divisor prepare(cplx b)
{
    int real_major = fabs(b.re) >= fabs(b.im);
    cplx r = rotate(b, real_major);
    double rat = r.im / r.re;
    return (divisor){real_major, rat, 1.0 / (r.re + r.im * rat)};
}

static inline cplx divide(cplx a, divisor d)
{
    return quotient(rotate(a, d.real_major), d.rat, d.scl);
}

static inline cplx cdiv(cplx a, cplx b)
{
    int real_major = fabs(b.re) >= fabs(b.im);
    cplx ra = rotate(a, real_major), rb = rotate(b, real_major);
    double rat = rb.im / rb.re;
    return quotient(ra, rat, 1.0 / (rb.re + rb.im * rat));
}

/* sqrt(re^2 + im^2), which is cmag(z) unless *off is set: it becomes
 * nonzero when the sum of squares is outside cmag's range or NaN */
static inline double quick_mag(cplx z, long *off)
{
    double sq = z.re * z.re + z.im * z.im;
    *off |= !((sq >= MAG_SQ_MIN) & (sq <= MAG_SQ_MAX));
    return sqrt(sq);
}

static inline cplx dot(const cplx *x, const cplx *y, ptrdiff_t alpha)
{
    cplx acc = cmul(x[0], y[0]);
    for (ptrdiff_t m = 1; m < alpha; m++) {
        cplx p = cmul(x[m], y[m]);
        acc.re += p.re;
        acc.im += p.im;
    }
    return acc;
}

static inline double abs_dot(const cplx *x, const double *y_abs, ptrdiff_t alpha)
{
    double acc = cmag(x[0]) * y_abs[0];
    for (ptrdiff_t m = 1; m < alpha; m++)
        acc += cmag(x[m]) * y_abs[m];
    return acc;
}

static inline void swap_c(cplx *a, cplx *b)
{
    cplx tmp = *a;
    *a = *b;
    *b = tmp;
}

/* swap entries k lead + i step and p lead + i step of a, for i < len */
static void swap_lines(cplx *a, ptrdiff_t k, ptrdiff_t p, ptrdiff_t lead, ptrdiff_t step,
                       ptrdiff_t len)
{
    for (ptrdiff_t i = 0; i < len; i++)
        swap_c(a + k * lead + i * step, a + p * lead + i * step);
}

/* The number of interleaved partial sums of every lane-split loop; see the
 * top of the file for the step and hat_rows for the hat ratio. */
#define HAT_LANES 8

/* lane[0] + lane[1] + ... + lane[7], in lane order; written out, since
 * GCC vectorises the loop form in every copy, to no gain */
#if HAT_LANES != 8
#error "lane_total adds exactly eight lanes"
#endif
static inline double lane_total(const double *lane)
{
    return ((((((lane[0] + lane[1]) + lane[2]) + lane[3]) + lane[4]) + lane[5]) + lane[6]) +
           lane[7];
}

#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif
/* A loop over the lanes stays a loop until GCC's vectoriser runs across it;
 * unrolled earlier, its body would be vectorised across chunks instead,
 * with in-order reductions that make the row three to five times slower. */
#if defined(__GNUC__) && !defined(__clang__)
#define LANE_LOOP _Pragma("GCC unroll 1")
#else
#define LANE_LOOP
#endif
/* A loop whose stores overlap none of its loads; GCC cannot see that
 * through the inlined restrict pointers and would add an aliasing check and
 * a scalar copy of the loop. */
#if defined(__GNUC__) && !defined(__clang__)
#define NO_OVERLAP _Pragma("GCC ivdep")
#else
#define NO_OVERLAP
#endif

/* hat_ratio_step, step_rank2 and largest are compiled three times, for
 * AVX-512F, for AVX2 and for the base ISA, and the dynamic loader picks the
 * copy for the CPU.  target_clones dispatches through an ifunc, which needs
 * the GNU dynamic loader; elsewhere they are compiled once, for the base
 * ISA, as they are everywhere when KERNEL_CLONES is defined empty
 * (-DKERNEL_CLONES=).  Defined as a single target, such as
 * -DKERNEL_CLONES='__attribute__((target("avx2")))', it builds that copy
 * alone, which runs only on a CPU with that extension.
 *
 * The AVX-512F target enables fused multiply-adds, which AVX-512F has in
 * EVEX forms of its own; the AVX2 target alone does not (FMA is a separate
 * extension).  -ffp-contract=off does not always stop GCC from fusing a
 * vectorised complex product in an AVX-512F copy: GCC 12.2 formed
 * vfmaddsub in a clone of a loop that substituted eight right-hand sides
 * at a time.  So the tests and CI disassemble every build with objdump and
 * fail on any FMA instruction; for the AVX2 build that guards against a
 * change of flags or compiler.  The cloned loops hold none today. */
#ifndef KERNEL_CLONES
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define KERNEL_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#endif
#ifndef KERNEL_CLONES
#define KERNEL_CLONES
#endif

/* cnt <= HAT_LANES consecutive columns of one row of the hat ratio: adds
 * (|phi_i||psi_j| g_ij)^2 to num_lane[l] and |phi_i psi_j g_ij|^2 to
 * den_lane[l] for column l.  re, im and mag hold psi's components by
 * generator, ld apart, starting at the first of the columns.  The sums over
 * the generators run in generator order, as in dot and abs_dot. */
static ALWAYS_INLINE void hat_chunk(ptrdiff_t alpha, ptrdiff_t cnt, ptrdiff_t ld,
                                    const cplx *phi_i, const double *phi_abs, const double *g,
                                    const double *re, const double *im, const double *mag,
                                    double *num_lane, double *den_lane)
{
    double num[HAT_LANES], den_re[HAT_LANES], den_im[HAT_LANES];
    LANE_LOOP
    for (ptrdiff_t l = 0; l < cnt; l++) {
        num[l] = phi_abs[0] * mag[l];
        den_re[l] = phi_i[0].re * re[l] - phi_i[0].im * im[l];
        den_im[l] = phi_i[0].re * im[l] + phi_i[0].im * re[l];
    }
    for (ptrdiff_t m = 1; m < alpha; m++) {
        LANE_LOOP
        for (ptrdiff_t l = 0; l < cnt; l++) {
            ptrdiff_t x = m * ld + l;
            num[l] += phi_abs[m] * mag[x];
            den_re[l] += phi_i[m].re * re[x] - phi_i[m].im * im[x];
            den_im[l] += phi_i[m].re * im[x] + phi_i[m].im * re[x];
        }
    }
    LANE_LOOP
    for (ptrdiff_t l = 0; l < cnt; l++) {
        double a = num[l] * g[l], b = den_re[l] * g[l], c = den_im[l] * g[l];
        num_lane[l] += a * a;
        den_lane[l] += b * b + c * c;
    }
}

/* Rows k..n-1 of the hat ratio's sums of squares into sums[0] (hatted) and
 * sums[1] (plain), for the len = n - k columns of cols (see
 * hat_ratio_step).  In each row, column j goes to partial sum j mod
 * HAT_LANES; the partial sums are added in lane order and the rows in row
 * order.  Inlined once more with alpha = 2, the displacement rank of a
 * Toeplitz matrix, as a constant, so that the loop over the generators
 * unrolls: on a 2-vCPU x86-64 VM the generic path made diagnosed-small
 * operations 16% slower at the median.  The tail of len mod HAT_LANES
 * columns is inlined as well (called out of line once a row, it made the
 * step 1.5 to 2 times as slow there), one column a chunk: GCC would
 * vectorise a chunk of variable length in every copy, a sixth of the
 * kernel's compile time, to no gain. */
static ALWAYS_INLINE void hat_rows(ptrdiff_t alpha, ptrdiff_t n, ptrdiff_t k, const cplx *phi,
                                   const double *inv_gap, const double *cols, double *phi_abs,
                                   double *sums)
{
    ptrdiff_t len = n - k, full = len - len % HAT_LANES;
    const double *re = cols, *im = cols + alpha * len, *mag = im + alpha * len;
    for (ptrdiff_t i = k; i < n; i++) {
        const cplx *phi_i = phi + i * alpha;
        const double *g = inv_gap + i * n + k;
        double num_lane[HAT_LANES] = {0.0}, den_lane[HAT_LANES] = {0.0};
        for (ptrdiff_t m = 0; m < alpha; m++)
            phi_abs[m] = cmag(phi_i[m]);
        for (ptrdiff_t j = 0; j < full; j += HAT_LANES)
            hat_chunk(alpha, HAT_LANES, len, phi_i, phi_abs, g + j, re + j, im + j, mag + j,
                      num_lane, den_lane);
        for (ptrdiff_t j = full; j < len; j++)
            hat_chunk(alpha, 1, len, phi_i, phi_abs, g + j, re + j, im + j, mag + j,
                      num_lane + (j - full), den_lane + (j - full));
        sums[0] += lane_total(num_lane);
        sums[1] += lane_total(den_lane);
    }
}

/* ||V(k) o R_k||_F / ||R_k||_F at the step-k generators, NaN when R_k = 0.
 * cols is 3 alpha n doubles of work space: psi's lines k..n-1 are copied
 * there column by column, split into real parts, imaginary parts and
 * magnitudes, so that consecutive columns are consecutive doubles. */
static KERNEL_CLONES double hat_ratio_step(ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k,
                                           const cplx *phi, const cplx *psi,
                                           const double *inv_gap, double *cols,
                                           double *phi_abs)
{
    ptrdiff_t len = n - k;
    for (ptrdiff_t j = 0; j < len; j++)
        for (ptrdiff_t m = 0; m < alpha; m++) {
            cplx z = psi[(k + j) * alpha + m];
            cols[m * len + j] = z.re;
            cols[(alpha + m) * len + j] = z.im;
            cols[(2 * alpha + m) * len + j] = cmag(z);
        }
    double sums[2] = {0.0, 0.0};
    if (alpha == 2)
        hat_rows(2, n, k, phi, inv_gap, cols, phi_abs, sums);
    else
        hat_rows(alpha, n, k, phi, inv_gap, cols, phi_abs, sums);
    if (sums[1] == 0.0)
        return NAN;
    return sqrt(sums[0]) / sqrt(sums[1]);
}

/* One side of the matrix, the rows or the columns (see the top of the file).
 * Line j of a side is its node j, generator row j, entry j of the recovered
 * line, row j of L or column j of U, and row or column j of inv_gap. */
typedef struct {
    cplx *node, *gen;      /* t or s; phi or psi^T, alpha entries a line */
    cplx *line;            /* step-k column or row of the reduced matrix */
    double *mag, *gen_abs; /* |line| and |gen_k|, entrywise */
    ptrdiff_t *idx;        /* pidx or cidx */
    cplx *fac, *panel;     /* LU; the L panel, NULL for U */
    ptrdiff_t lead, step;  /* line j of fac and of inv_gap starts at j lead,
                            * its entries step apart */
    ptrdiff_t fac_len, panel_lead, panel_len; /* finished entries a line */
    double hat_sq;         /* running ||Lhat||_F^2 or (u_scale ||Uhat||_F)^2 */
    double sq;             /* running ||L||_F^2 - n or (u_scale ||U||_F)^2 */
} side;

/* Everything a step reads or writes besides the two sides. */
typedef struct {
    ptrdiff_t n, alpha;
    int strategy;
    double eps, u_scale, cand_max;
    double *inv_gap, *hat_ratio; /* both NULL without hat ratios */
    ptrdiff_t *piv_index;
    unsigned char *piv_is_col;
    double *piv_mag;
    cplx *v_kk;
    side rows, cols;
} elimination;

/* t - s between node j of a side and node_k of the other side: t_j - s_k on
 * the rows, t_k - s_j on the columns, by operand order, so that no negation
 * can flip the sign of a zero */
static ALWAYS_INLINE cplx gap(int rows, const cplx *node, ptrdiff_t j, cplx node_k)
{
    return rows ? csub(node[j], node_k) : csub(node_k, node[j]);
}

/* Step-k line of a side into line[k..n-1]: entry j is gen_j gen'_k over its
 * gap, gen'_k = other_k being line k of the other side's generators.  Entry
 * k has the same bits from either side, since a complex product commutes
 * exactly and the diagonal's gap is t_k - s_k on both. */
static ALWAYS_INLINE void recover(ptrdiff_t alpha, int rows, ptrdiff_t n, ptrdiff_t k,
                                  const cplx *restrict gen, const cplx *restrict other_k,
                                  const cplx *restrict node, cplx node_k, cplx *restrict line)
{
    NO_OVERLAP
    for (ptrdiff_t j = k; j < n; j++)
        line[j] = cdiv(dot(gen + j * alpha, other_k, alpha), gap(rows, node, j, node_k));
}

/* |line| into mag[k..n-1]; returns the first largest of them, which is k
 * when mag[k] is NaN */
static KERNEL_CLONES ptrdiff_t largest(ptrdiff_t n, ptrdiff_t k, const cplx *restrict line,
                                       double *restrict mag)
{
    long off = 0;
    for (ptrdiff_t j = k; j < n; j++)
        mag[j] = quick_mag(line[j], &off);
    if (off)
        for (ptrdiff_t j = k; j < n; j++)
            mag[j] = cmag(line[j]);
    /* per lane, the largest entry past k and its first index: a NaN never
     * wins the strict >, and every magnitude beats -1 */
    double top[HAT_LANES];
    ptrdiff_t at[HAT_LANES];
    for (int l = 0; l < HAT_LANES; l++) {
        top[l] = -1.0;
        at[l] = n;
    }
    for (ptrdiff_t j = k + 1; j < n; j += HAT_LANES) {
        ptrdiff_t cnt = n - j < HAT_LANES ? n - j : HAT_LANES;
        LANE_LOOP
        for (ptrdiff_t l = 0; l < cnt; l++) {
            double x = mag[j + l];
            int up = x > top[l];
            top[l] = up ? x : top[l];
            at[l] = up ? j + l : at[l];
        }
    }
    ptrdiff_t best = k;
    for (int l = 0; l < HAT_LANES; l++)
        if (top[l] > mag[best] || (top[l] == mag[best] && at[l] < best))
            best = at[l];
    return best;
}

/* Entries j..j+cnt-1 of a side past the pivot u_kk, cnt <= HAT_LANES, into
 * the lanes (see the top of the file): the squared hatted entry to hat[l]
 * and the squared new entry of the factor to fac[l].  The hatted entry is
 * |gen_j||gen'_k| / |gap|, over |u_kk| = scale as well on the rows: the V
 * denominator cancels, so a fully cancelled entry never reaches the hatted
 * norms.  The factor's entry is line_j / u_kk on the rows (L) and line_j on
 * the columns (U).  On the columns scale is u_scale, and both entries are
 * multiplied by it.  With exact, magnitudes are cmag's; otherwise
 * quick_mag's, with its flag in *off. */
static ALWAYS_INLINE void sum_chunk(ptrdiff_t alpha, int rows, int exact, ptrdiff_t cnt,
                                    ptrdiff_t j, const cplx *restrict gen,
                                    const double *restrict other_abs,
                                    const cplx *restrict node, cplx node_k,
                                    const cplx *restrict line, divisor by, double scale,
                                    double *restrict hat, double *restrict fac, long *off)
{
    long bad = 0;
    LANE_LOOP
    for (ptrdiff_t l = 0; l < cnt; l++) {
        const cplx *gen_j = gen + (j + l) * alpha;
        cplx g = gap(rows, node, j + l, node_k), e = line[j + l];
        double acc = (exact ? cmag(gen_j[0]) : quick_mag(gen_j[0], &bad)) * other_abs[0];
        for (ptrdiff_t m = 1; m < alpha; m++)
            acc += (exact ? cmag(gen_j[m]) : quick_mag(gen_j[m], &bad)) * other_abs[m];
        double d = exact ? cmag(g) : quick_mag(g, &bad);
        double h = rows ? acc / (d * scale) : acc * scale / d;
        hat[l] += h * h;
        e = rows ? divide(e, by) : (cplx){e.re * scale, e.im * scale};
        fac[l] += e.re * e.re + e.im * e.im;
    }
    *off |= bad;
}

/* sum_chunk with cmag's magnitudes over entries from..n-1, chunk by chunk:
 * the tail of fewer than HAT_LANES entries after the vectorised chunks, or
 * every entry of a step where quick_mag was off.  It is not inlined, so the
 * copies of the step share one scalar copy of it. */
static void exact_sums(ptrdiff_t alpha, int rows, ptrdiff_t n, ptrdiff_t from,
                       const cplx *gen, const double *other_abs, const cplx *node,
                       cplx node_k, const cplx *line, divisor by, double scale, double *hat,
                       double *fac)
{
    long off = 0;
    for (ptrdiff_t j = from; j < n; j += HAT_LANES)
        sum_chunk(alpha, rows, 1, n - j < HAT_LANES ? n - j : HAT_LANES, j, gen, other_abs,
                  node, node_k, line, by, scale, hat, fac, &off);
}

/* Hatted norm, factor norm and Schur update of side a past the pivot u_kk,
 * b being the other side; rows says which side a is.  diag_sq is the
 * diagonal's squared hatted entry, times u_scale^2 on the columns, and the
 * step adds it and the squared hatted entries past the pivot to a->hat_sq.
 * The sums read the generators before the update
 *   gen_j <- gen_j - (line_j / u_kk) gen_k,
 * which also gathers L's new column in the panel. */
static ALWAYS_INLINE void update(ptrdiff_t alpha, int rows, side *a, const side *b,
                                 ptrdiff_t n, ptrdiff_t k, cplx u_kk, double u_scale,
                                 double diag_sq)
{
    const cplx *restrict gen_k = a->gen + k * alpha;
    cplx *restrict gen = a->gen, *restrict panel = a->panel;
    const cplx *restrict line = a->line;
    ptrdiff_t lead = a->panel_lead, col = a->panel_len;
    divisor by = prepare(u_kk);
    double scale = rows ? cmag(u_kk) : u_scale;
    double hat[HAT_LANES] = {0.0}, fac[HAT_LANES] = {0.0};
    long off = 0;
    ptrdiff_t j = k + 1;
    for (; n - j >= HAT_LANES; j += HAT_LANES)
        sum_chunk(alpha, rows, 0, HAT_LANES, j, gen, b->gen_abs, a->node, b->node[k], line, by,
                  scale, hat, fac, &off);
    if (off) {
        memset(hat, 0, sizeof hat);
        memset(fac, 0, sizeof fac);
        j = k + 1;
    }
    exact_sums(alpha, rows, n, j, gen, b->gen_abs, a->node, b->node[k], line, by, scale, hat,
               fac);
    a->hat_sq += diag_sq + lane_total(hat);
    a->sq += lane_total(fac);

    NO_OVERLAP
    for (j = k + 1; j < n; j++) {
        cplx *gen_j = gen + j * alpha;
        cplx w = divide(line[j], by);
        if (rows)
            panel[j * lead + col] = w;
        for (ptrdiff_t m = 0; m < alpha; m++) {
            cplx d = cmul(w, gen_k[m]);
            gen_j[m].re -= d.re;
            gen_j[m].im -= d.im;
        }
    }
}

/* Swap lines k and p of side a: node, permutation entry, generator row,
 * recovered entry, the finished part of the factor and, when inv_gap is not
 * NULL, the reciprocal gaps. */
static void interchange(side *a, ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k, ptrdiff_t p,
                        double *inv_gap)
{
    ptrdiff_t idx = a->idx[k];
    a->idx[k] = a->idx[p];
    a->idx[p] = idx;
    swap_c(a->node + k, a->node + p);
    swap_c(a->line + k, a->line + p);
    swap_lines(a->gen, k, p, alpha, 1, alpha);
    swap_lines(a->fac, k, p, a->lead, a->step, a->fac_len);
    swap_lines(a->panel, k, p, a->panel_lead, 1, a->panel_len);
    for (ptrdiff_t i = 0; inv_gap && i < n; i++) {
        double *x = inv_gap + k * a->lead + i * a->step;
        double *y = inv_gap + p * a->lead + i * a->step, g = *x;
        *x = *y;
        *y = g;
    }
}

/* Step k of the elimination, the hat ratio first when asked; returns
 * nonzero, with e->cand_max set, when the pivot is at most n eps times the
 * largest candidate or not a normal number ("not >=" counts NaN). */
static ALWAYS_INLINE int step(ptrdiff_t alpha, elimination *e, ptrdiff_t k)
{
    ptrdiff_t n = e->n;
    side *rows = &e->rows, *cols = &e->cols;
    const cplx *phi_k = rows->gen + k * alpha, *psi_k = cols->gen + k * alpha;
    if (e->hat_ratio)
        e->hat_ratio[k] = hat_ratio_step(n, alpha, k, rows->gen, cols->gen, e->inv_gap,
                                         e->inv_gap + n * n, rows->gen_abs);

    /* The first round recovers the candidates: the column and, under
     * row1col1, the row.  The second recovers the line that did not move
     * from the one that did, unless it is already current (row1col1 kept
     * every line in place).  One call a side keeps one copy of each loop. */
    side *moved = rows;
    ptrdiff_t p = k;
    double cand_max = 0.0;
    int want_rows = 1, want_cols = e->strategy == PIVOT_ROW1_COL1;
    for (int round = 0; round < 2; round++) {
        if (want_rows)
            recover(alpha, 1, n, k, rows->gen, psi_k, rows->node, cols->node[k], rows->line);
        if (want_cols)
            recover(alpha, 0, n, k, cols->gen, phi_k, cols->node, rows->node[k], cols->line);
        if (round == 1)
            break;
        ptrdiff_t q = largest(n, k, rows->line, rows->mag);
        cand_max = rows->mag[q];
        if (want_cols) {
            /* a row-versus-column tie stays on the row */
            ptrdiff_t q_row = largest(n, k, cols->line, cols->mag);
            if (cols->mag[q_row] > cand_max) {
                cand_max = cols->mag[q_row];
                q = q_row;
                moved = cols;
            }
        }
        if (e->strategy != PIVOT_NONE)
            p = q;
        if (p != k)
            interchange(moved, n, alpha, k, p, e->inv_gap);
        want_rows = moved == cols;
        want_cols = moved == rows && (p != k || e->strategy != PIVOT_ROW1_COL1);
    }
    cplx u_kk = moved->line[k];
    e->piv_index[k] = p;
    e->piv_is_col[k] = moved == cols;
    double mag = e->piv_mag[k] = cmag(u_kk);
    if (mag <= (double)n * e->eps * cand_max || !(mag >= DBL_MIN)) {
        e->cand_max = cand_max;
        return 1;
    }

    /* v_kk and the hatted norms at the pivoted step-k generators.  The
     * diagonal's hatted entry is |v_kk| in L, whose diagonal is one, and
     * |phi_k||psi_k| / |t_k - s_k| in U, summed times u_scale like u_kk.
     * phi_k psi_k is the numerator of u_kk, formed with the bits recover
     * gave it. */
    for (ptrdiff_t m = 0; m < alpha; m++) {
        rows->gen_abs[m] = cmag(phi_k[m]);
        cols->gen_abs[m] = cmag(psi_k[m]);
    }
    cplx den = dot(phi_k, psi_k, alpha);
    double num = abs_dot(phi_k, cols->gen_abs, alpha);
    cplx v = cdiv((cplx){num, 0.0}, den);
    e->v_kk[k] = isfinite(v.re) && isfinite(v.im) ? v : (cplx){INFINITY, 0.0};
    double u_scale = e->u_scale, h_l = cmag(e->v_kk[k]);
    double h_u = num * u_scale / cmag(csub(rows->node[k], cols->node[k]));
    cplx u = {u_kk.re * u_scale, u_kk.im * u_scale};
    cols->sq += u.re * u.re + u.im * u.im;
    update(alpha, 1, rows, cols, n, k, u_kk, u_scale, h_l * h_l);
    update(alpha, 0, cols, rows, n, k, u_kk, u_scale, h_u * h_u);
    return 0;
}

/* alpha = 2, the displacement rank of every Toeplitz input, has the one
 * constant-alpha copy of the step, and the only one with AVX-512F and AVX2
 * clones */
static KERNEL_CLONES int step_rank2(elimination *e, ptrdiff_t k)
{
    return step(2, e, k);
}

static int step_any_rank(elimination *e, ptrdiff_t k)
{
    return step(e->alpha, e, k);
}

/* The scale of U's sums of squares (see the top of the file): 2^-e for
 * the exponent e of the largest magnitude of R's first column and row, its
 * entries formed as recover forms them, with e kept within [-1021, 1021] so
 * that the scale and its reciprocal are normal.  1 when that magnitude is
 * zero or an entry is not finite. */
static double pick_u_scale(ptrdiff_t n, ptrdiff_t alpha, const cplx *phi, const cplx *psi,
                           const cplx *t, const cplx *s)
{
    double top = 0.0;
    for (ptrdiff_t j = 0; j < n; j++) {
        double col = cmag(cdiv(dot(phi + j * alpha, psi, alpha), csub(t[j], s[0])));
        double row = cmag(cdiv(dot(psi + j * alpha, phi, alpha), csub(t[0], s[j])));
        if (!isfinite(col) || !isfinite(row))
            return 1.0;
        top = fmax(top, fmax(col, row));
    }
    int e;
    frexp(top, &e);
    return ldexp(1.0, e < -1021 ? 1021 : e > 1021 ? -1021 : -e);
}

/* Factor the Cauchy-type matrix with nodes t, s and generators phi (n x
 * alpha) and psi (stored transposed, n x alpha: row j is psi's column j).
 * No t_i may equal an s_j (CauchyNodes checks this).
 *
 * phi, psi, t, s, pidx and cidx are overwritten as elimination permutes and
 * updates them.  LU is n x n and must hold zeros on entry; it receives L
 * strictly below the diagonal and U on and above it, and no other entry is
 * written.  Per step k the trace arrays receive the pivot, its magnitude
 * and v_kk (+inf where the quotient is not finite); hat_ratio[k] is
 * written only when hat is nonzero, in which case inv_gap is work space of
 * n^2 + 3 alpha n doubles: the reciprocal gaps times u_scale, then
 * hat_ratio_step's columns.  panel holds n x panel_width complex values:
 * column k of L is gathered there, row by row, and copied into LU every
 * panel_width steps.  work_c holds n complex values, work_r 2n + 2 alpha
 * doubles.  norms receives ||L||_F, ||U||_F, ||Lhat||_F / ||L||_F and
 * ||Uhat||_F / ||U||_F (the hatted entries are L's and U's times V's, in
 * magnitude) or, when a step fails, its largest candidate in norms[4].
 *
 * Returns -1, or the first step whose pivot magnitude is at most n eps times
 * the largest candidate examined there (the matrix is singular to working
 * precision) or is not a normal number: a subnormal pivot has lost digits,
 * and one past the float range is NaN, which the relative test cannot see.
 */
ptrdiff_t gko_eliminate(ptrdiff_t n, ptrdiff_t alpha, int strategy, int hat, double eps,
                        ptrdiff_t panel_width, cplx *phi, cplx *psi, cplx *t, cplx *s,
                        cplx *LU, ptrdiff_t *pidx, ptrdiff_t *cidx,
                        ptrdiff_t *piv_index, unsigned char *piv_is_col, double *piv_mag,
                        cplx *v_kk, double *hat_ratio, double *inv_gap, cplx *panel,
                        cplx *work_c, double *work_r, double *norms)
{
    double u_scale = pick_u_scale(n, alpha, phi, psi, t, s);
    elimination e = {
        .n = n, .alpha = alpha, .strategy = strategy, .eps = eps, .u_scale = u_scale,
        .inv_gap = hat ? inv_gap : NULL, .hat_ratio = hat ? hat_ratio : NULL,
        .piv_index = piv_index, .piv_is_col = piv_is_col, .piv_mag = piv_mag, .v_kk = v_kk,
        .rows = {.node = t, .gen = phi, .line = work_c, .mag = work_r,
                 .gen_abs = work_r + 2 * n, .idx = pidx, .fac = LU, .panel = panel,
                 .lead = n, .step = 1, .panel_lead = panel_width},
        .cols = {.node = s, .gen = psi, .mag = work_r + n, .gen_abs = work_r + 2 * n + alpha,
                 .idx = cidx, .fac = LU, .lead = 1, .step = n},
    };

    if (hat)
        for (ptrdiff_t i = 0; i < n; i++)
            for (ptrdiff_t j = 0; j < n; j++)
                inv_gap[i * n + j] = u_scale / cmag(csub(t[i], s[j]));

    for (ptrdiff_t k = 0; k < n; k++) {
        /* columns k0..k of L are held in the panel until it is flushed */
        ptrdiff_t k0 = k - k % panel_width, c = k - k0;
        e.rows.fac_len = k0;
        e.rows.panel_len = c;
        e.cols.fac_len = k;
        e.cols.line = LU + k * n;
        if (alpha == 2 ? step_rank2(&e, k) : step_any_rank(&e, k)) {
            norms[4] = e.cand_max;
            return k;
        }
        if (c == panel_width - 1 || k == n - 1)
            for (ptrdiff_t j = k0 + 1; j < n; j++) {
                ptrdiff_t width = j - k0 < c + 1 ? j - k0 : c + 1;
                memcpy(LU + j * n + k0, panel + j * panel_width, (size_t)width * sizeof(cplx));
            }
    }
    norms[0] = sqrt((double)n + e.rows.sq);
    norms[1] = sqrt(e.cols.sq) / u_scale;
    norms[2] = sqrt(e.rows.hat_sq) / norms[0];
    norms[3] = sqrt(e.cols.hat_sq) / sqrt(e.cols.sq);
    return -1;
}

/* Substitute in place through one b x b diagonal block T (row stride ldt)
 * of a triangular factor, for the m right-hand sides held row-major in X
 * (b x m, row stride m).
 *
 * upper == 0: T is unit lower triangular, its diagonal is never read, and
 * row i becomes x_i - sum_{j<i} t_ij x_j, first row first.  upper != 0: T is
 * upper triangular and row i becomes (x_i - sum_{j>i} t_ij x_j) / t_ii, last
 * row first.  Each sum subtracts its products one at a time, j ascending.
 * Substitution is backward stable without interchanges (Higham, Accuracy
 * and Stability of Numerical Algorithms, 2nd ed., Thm 8.5).
 */
void tri_block_solve(ptrdiff_t b, ptrdiff_t m, int upper, const cplx *T, ptrdiff_t ldt,
                     cplx *X)
{
    for (ptrdiff_t r = 0; r < b; r++) {
        ptrdiff_t i = upper ? b - 1 - r : r;
        ptrdiff_t lo = upper ? i + 1 : 0, hi = upper ? b : i;
        const cplx *t_i = T + i * ldt;
        divisor by_diag = prepare(upper ? t_i[i] : (cplx){1.0, 0.0});
        for (ptrdiff_t c = 0; c < m; c++) {
            /* summed in a local: the compiler must assume that a store to
             * x_i could change an x_j, and would reload the sum each time */
            cplx acc = X[i * m + c];
            for (ptrdiff_t j = lo; j < hi; j++) {
                cplx d = cmul(t_i[j], X[j * m + c]);
                acc.re -= d.re;
                acc.im -= d.im;
            }
            X[i * m + c] = upper ? divide(acc, by_diag) : acc;
        }
    }
}
