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
 * the first maximum (a strict >).
 *
 * Each elimination step describes the two sides of the matrix with one
 * descriptor type, side: the rows (nodes t, generators phi, the recovered
 * column, L, pidx) and the columns (nodes s, psi^T, the recovered row, U,
 * cidx).  A column interchange on R is a row interchange on R^T, whose
 * generators are (psi^T, phi^T), so recover, interchange and update are
 * each one routine called once per side.  What differs between the sides
 * is data in the descriptor: which node leads the gap (t_j - s_k for the
 * column, t_k - s_j for the row) and where a line of L or U, or of inv_gap,
 * starts and how far apart its entries are.  gko_eliminate picks the side
 * whose line moved and recovers the other side from it.
 *
 * Besides the factors, a step records only what the growth report reads:
 * the pivot, v_kk, the hatted norms of the new L column and U row and, when
 * asked, the hat ratio.
 */

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

/* A divisor prepared for numpy's Smith division: rat and scl depend on the
 * divisor alone, so dividing many numerators by one value costs products. */
typedef struct {
    int real_major, zero;
    double rat, scl, abs_re;
} divisor;

static inline divisor prepare(cplx b)
{
    divisor d = {0, 0, 0.0, 0.0, fabs(b.re)};
    if (fabs(b.re) >= fabs(b.im)) {
        d.real_major = 1;
        if (b.re == 0.0 && b.im == 0.0) {
            d.zero = 1;
        } else {
            d.rat = b.im / b.re;
            d.scl = 1.0 / (b.re + b.im * d.rat);
        }
    } else {
        d.rat = b.re / b.im;
        d.scl = 1.0 / (b.im + b.re * d.rat);
    }
    return d;
}

static inline cplx divide(cplx a, divisor d)
{
    if (d.zero)
        return (cplx){a.re / d.abs_re, a.im / d.abs_re};
    if (d.real_major)
        return (cplx){(a.re + a.im * d.rat) * d.scl, (a.im - a.re * d.rat) * d.scl};
    return (cplx){(a.re * d.rat + a.im) * d.scl, (a.im * d.rat - a.re) * d.scl};
}

static inline cplx cdiv(cplx a, cplx b)
{
    return divide(a, prepare(b));
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

/* The hat ratio's sums of squares over a row are split into HAT_LANES
 * interleaved partial sums: column j of the step goes to sum j mod
 * HAT_LANES.  The partial sums are added in lane order and the rows in row
 * order, so the result is fixed by the source; with no reassociation and
 * no fused multiply-add every vector width gives the same bits. */
#define HAT_LANES 8

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

/* target_clones dispatches through an ifunc, which needs the GNU dynamic
 * loader; elsewhere hat_ratio_step is compiled once, for the base ISA, as
 * it is everywhere when HAT_CLONES is defined empty (-DHAT_CLONES=) */
#ifndef HAT_CLONES
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define HAT_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#endif
#ifndef HAT_CLONES
#define HAT_CLONES
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
 * hat_ratio_step).  Inlined once more with alpha = 2, the displacement rank
 * of a Toeplitz matrix, as a constant, so that the loop over the generators
 * unrolls: on a 2-vCPU x86-64 VM the generic path made diagnosed-small
 * operations 16% slower at the median.  The tail of len mod HAT_LANES
 * columns is inlined as well; called out of line once a row, it made the
 * step 1.5 to 2 times as slow there. */
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
        hat_chunk(alpha, len - full, len, phi_i, phi_abs, g + full, re + full, im + full,
                  mag + full, num_lane, den_lane);
        double num_sq = num_lane[0], den_sq = den_lane[0];
        for (int l = 1; l < HAT_LANES; l++) {
            num_sq += num_lane[l];
            den_sq += den_lane[l];
        }
        sums[0] += num_sq;
        sums[1] += den_sq;
    }
}

/* ||V(k) o R_k||_F / ||R_k||_F at the step-k generators, NaN when R_k = 0.
 * cols is 3 alpha n doubles of work space: psi's lines k..n-1 are copied
 * there column by column, split into real parts, imaginary parts and
 * magnitudes, so that consecutive columns are consecutive doubles. */
static HAT_CLONES double hat_ratio_step(ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k,
                                        const cplx *phi, const cplx *psi,
                                        const double *inv_gap, double *cols, double *phi_abs)
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
    cplx *line, *num;      /* step-k column or row of the reduced matrix and
                            * the numerators of its entries */
    double *mag, *gen_abs; /* |line| and |gen_k|, entrywise */
    ptrdiff_t *idx;        /* pidx or cidx */
    int rows;              /* 1 on the rows: the gap is t_j - s_k rather than
                            * t_k - s_j, and the factor is L, whose entries
                            * line_j / u_kk are gathered in the panel */
    cplx *fac, *panel;     /* L or U; the L panel, NULL for U */
    ptrdiff_t lead, step;  /* line j of fac and of inv_gap starts at j lead,
                            * its entries step apart */
    ptrdiff_t fac_len, panel_lead, panel_len; /* finished entries a line */
    double *hat;           /* per-step hatted norm */
    double sq;             /* running ||L||_F^2 - n or ||U||_F^2 */
} side;

/* t - s between node j of side a and node k of the other side b */
static inline cplx gap(const side *a, ptrdiff_t j, const side *b, ptrdiff_t k)
{
    return a->rows ? csub(a->node[j], b->node[k]) : csub(b->node[k], a->node[j]);
}

/* Step-k line of side a into a->line[from..n-1]: entry j is gen_j gen'_k
 * over its gap, gen' being the other side b's generators, and its numerator
 * goes to a->num[j].  The diagonal entry belongs to both lines, so from > k
 * copies it from b. */
static void recover(side *a, const side *b, ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k,
                    ptrdiff_t from)
{
    if (from > k) {
        a->line[k] = b->line[k];
        a->num[k] = b->num[k];
    }
    for (ptrdiff_t j = from; j < n; j++) {
        a->num[j] = dot(a->gen + j * alpha, b->gen + k * alpha, alpha);
        a->line[j] = cdiv(a->num[j], gap(a, j, b, k));
    }
}

/* |line| into a->mag[from..n-1]; returns the first largest of a->mag[k..n-1] */
static ptrdiff_t largest(side *a, ptrdiff_t n, ptrdiff_t k, ptrdiff_t from)
{
    for (ptrdiff_t j = from; j < n; j++)
        a->mag[j] = cmag(a->line[j]);
    ptrdiff_t best = k;
    for (ptrdiff_t j = k + 1; j < n; j++)
        if (a->mag[j] > a->mag[best])
            best = j;
    return best;
}

/* Swap lines k and p of side a: node, permutation entry, generator row,
 * recovered entry and numerator, the finished part of the factor and, when
 * inv_gap is not NULL, the reciprocal gaps. */
static void interchange(side *a, ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k, ptrdiff_t p,
                        double *inv_gap)
{
    ptrdiff_t idx = a->idx[k];
    a->idx[k] = a->idx[p];
    a->idx[p] = idx;
    swap_c(a->node + k, a->node + p);
    swap_c(a->line + k, a->line + p);
    swap_c(a->num + k, a->num + p);
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

/* Hatted norm and Schur update of side a past the pivot u_kk, b being the
 * other side.  Each generator is read just before
 *   gen_j <- gen_j - (line_j / u_kk) gen_k.
 * The hatted entry |v_j||factor entry j| is |gen_j||gen'_k| / |gap|, for L
 * over |u_kk| as well: the V denominator cancels, so a fully cancelled entry
 * never reaches the hatted norms.  hat_sq arrives holding the diagonal's
 * squared hatted entry. */
static void update(side *a, const side *b, ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k,
                   cplx u_kk, double hat_sq)
{
    divisor by_pivot = prepare(u_kk);
    double scale = a->rows ? cmag(u_kk) : 1.0, sq = a->sq;
    const cplx *gen_k = a->gen + k * alpha;
    for (ptrdiff_t j = k + 1; j < n; j++) {
        cplx *gen_j = a->gen + j * alpha;
        double h = abs_dot(gen_j, b->gen_abs, alpha) / (cmag(gap(a, j, b, k)) * scale);
        hat_sq += h * h;
        cplx w = divide(a->line[j], by_pivot), e = a->line[j];
        if (a->rows)
            a->panel[j * a->panel_lead + a->panel_len] = e = w;
        sq += e.re * e.re + e.im * e.im;
        for (ptrdiff_t m = 0; m < alpha; m++) {
            cplx d = cmul(w, gen_k[m]);
            gen_j[m].re -= d.re;
            gen_j[m].im -= d.im;
        }
    }
    a->hat[k] = sqrt(hat_sq);
    a->sq = sq;
}

/* Factor the Cauchy-type matrix with nodes t, s and generators phi (n x
 * alpha) and psi (stored transposed, n x alpha: row j is psi's column j).
 *
 * phi, psi, t, s, pidx and cidx are overwritten as elimination permutes and
 * updates them.  L must hold the identity and U zeros on entry; both are n x
 * n.  Per step k the trace arrays receive the pivot, its magnitude, v_kk
 * (+inf where |phi_k psi_k| is below v_floor) and the hatted L column / U
 * row norms; hat_ratio[k] is written only when hat is nonzero, in which
 * case inv_gap is work space of n^2 + 3 alpha n doubles: the reciprocal
 * gaps, then hat_ratio_step's columns.  panel holds n x panel_width complex values: column k of L is
 * gathered there, row by row, and copied into L every panel_width steps.
 * work_c holds 3n complex values, work_r 2n + 2 alpha doubles.
 * sums receives ||L||_F^2 - n and ||U||_F^2 and, when a step fails, the
 * largest candidate magnitude of that step.
 *
 * Returns -1, or the step whose pivot magnitude is at most n eps times the
 * largest candidate examined there (the matrix is singular to working
 * precision).
 */
ptrdiff_t gko_eliminate(ptrdiff_t n, ptrdiff_t alpha, int strategy, int hat, double eps,
                        double v_floor, ptrdiff_t panel_width, cplx *phi, cplx *psi,
                        cplx *t, cplx *s, cplx *L, cplx *U, ptrdiff_t *pidx, ptrdiff_t *cidx,
                        ptrdiff_t *piv_index, unsigned char *piv_is_col, double *piv_mag,
                        cplx *v_kk, double *hat_ratio, double *hat_l, double *hat_u,
                        double *inv_gap, cplx *panel, cplx *work_c, double *work_r,
                        double *sums)
{
    side rows = {.node = t, .gen = phi, .line = work_c, .num = work_c + n, .mag = work_r,
                 .gen_abs = work_r + 2 * n, .idx = pidx, .rows = 1, .fac = L,
                 .panel = panel, .lead = n, .step = 1, .panel_lead = panel_width,
                 .hat = hat_l};
    side cols = {.node = s, .gen = psi, .num = work_c + 2 * n, .mag = work_r + n,
                 .gen_abs = rows.gen_abs + alpha, .idx = cidx, .fac = U, .lead = 1,
                 .step = n, .hat = hat_u};

    if (hat)
        for (ptrdiff_t i = 0; i < n; i++)
            for (ptrdiff_t j = 0; j < n; j++)
                inv_gap[i * n + j] = 1.0 / cmag(csub(t[i], s[j]));

    for (ptrdiff_t k = 0; k < n; k++) {
        /* columns k0..k of L are held in the panel until it is flushed */
        ptrdiff_t k0 = k - k % panel_width, c = k - k0;
        rows.fac_len = k0;
        rows.panel_len = c;
        cols.fac_len = k;
        cols.line = U + k * n;
        if (hat)
            hat_ratio[k] = hat_ratio_step(n, alpha, k, phi, psi, inv_gap, inv_gap + n * n,
                                          rows.gen_abs);

        recover(&rows, &cols, n, alpha, k, k);
        ptrdiff_t q = largest(&rows, n, k, k);
        double cand_max = rows.mag[q];
        side *moved = &rows, *other = &cols;
        if (strategy == PIVOT_ROW1_COL1) {
            /* the diagonal entry belongs to both candidate sets; reusing the
             * column's value keeps a row-versus-column tie on the row */
            recover(&cols, &rows, n, alpha, k, k + 1);
            cols.mag[k] = rows.mag[k];
            ptrdiff_t q_row = largest(&cols, n, k, k + 1);
            if (cols.mag[q_row] > cand_max) {
                cand_max = cols.mag[q_row];
                q = q_row;
                moved = &cols;
                other = &rows;
            }
        }
        ptrdiff_t p = strategy == PIVOT_NONE ? k : q;
        if (p != k)
            interchange(moved, n, alpha, k, p, hat ? inv_gap : NULL);
        /* the side that did not move is recovered from the one that did */
        recover(other, moved, n, alpha, k, k + 1);
        cplx u_kk = moved->line[k];
        piv_index[k] = p;
        piv_is_col[k] = moved == &cols;
        piv_mag[k] = cmag(u_kk);
        if (piv_mag[k] <= (double)n * eps * cand_max) {
            sums[2] = cand_max;
            return k;
        }

        /* v_kk and the hatted norms at the pivoted step-k generators.  The
         * diagonal's hatted entry is |v_kk| in L, whose diagonal is one, and
         * |phi_k||psi_k| / |t_k - s_k| in U. */
        for (ptrdiff_t m = 0; m < alpha; m++) {
            rows.gen_abs[m] = cmag(phi[k * alpha + m]);
            cols.gen_abs[m] = cmag(psi[k * alpha + m]);
        }
        double num = abs_dot(phi + k * alpha, cols.gen_abs, alpha);
        v_kk[k] = cmag(rows.num[k]) < v_floor ? (cplx){INFINITY, 0.0}
                                               : cdiv((cplx){num, 0.0}, rows.num[k]);
        double h_l = cmag(v_kk[k]), h_u = num / cmag(csub(t[k], s[k]));
        cols.sq += u_kk.re * u_kk.re + u_kk.im * u_kk.im;
        update(&rows, &cols, n, alpha, k, u_kk, h_l * h_l);
        update(&cols, &rows, n, alpha, k, u_kk, h_u * h_u);

        if (c == panel_width - 1 || k == n - 1)
            for (ptrdiff_t j = k0 + 1; j < n; j++) {
                ptrdiff_t width = j - k0 < c + 1 ? j - k0 : c + 1;
                memcpy(L + j * n + k0, panel + j * panel_width, (size_t)width * sizeof(cplx));
            }
    }
    sums[0] = rows.sq;
    sums[1] = cols.sq;
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
