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

static ptrdiff_t first_max(const double *v, ptrdiff_t lo, ptrdiff_t hi)
{
    ptrdiff_t best = lo;
    for (ptrdiff_t j = lo + 1; j < hi; j++)
        if (v[j] > v[best])
            best = j;
    return best;
}

static inline void swap_c(cplx *a, cplx *b)
{
    cplx tmp = *a;
    *a = *b;
    *b = tmp;
}

static inline void swap_i(ptrdiff_t *a, ptrdiff_t *b)
{
    ptrdiff_t tmp = *a;
    *a = *b;
    *b = tmp;
}

static void swap_rows(cplx *a, cplx *b, ptrdiff_t len)
{
    for (ptrdiff_t j = 0; j < len; j++)
        swap_c(a + j, b + j);
}

/* ||V(k) o R_k||_F / ||R_k||_F at the step-k generators, NaN when R_k = 0 */
static double hat_ratio_step(ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k, const cplx *phi,
                             const cplx *psi, const double *inv_gap, double *psi_abs,
                             double *phi_abs)
{
    for (ptrdiff_t j = k * alpha; j < n * alpha; j++)
        psi_abs[j] = cmag(psi[j]);
    double num_sq = 0.0, den_sq = 0.0;
    for (ptrdiff_t i = k; i < n; i++) {
        const cplx *phi_i = phi + i * alpha;
        const double *g = inv_gap + i * n;
        for (ptrdiff_t m = 0; m < alpha; m++)
            phi_abs[m] = cmag(phi_i[m]);
        for (ptrdiff_t j = k; j < n; j++) {
            const cplx *psi_j = psi + j * alpha;
            const double *psi_j_abs = psi_abs + j * alpha;
            double num = phi_abs[0] * psi_j_abs[0];
            cplx den = cmul(phi_i[0], psi_j[0]);
            for (ptrdiff_t m = 1; m < alpha; m++) {
                cplx p = cmul(phi_i[m], psi_j[m]);
                num += phi_abs[m] * psi_j_abs[m];
                den.re += p.re;
                den.im += p.im;
            }
            num *= g[j];
            den.re *= g[j];
            den.im *= g[j];
            num_sq += num * num;
            den_sq += den.re * den.re + den.im * den.im;
        }
    }
    if (den_sq == 0.0)
        return NAN;
    return sqrt(num_sq) / sqrt(den_sq);
}

/* Step-k row of the reduced matrix into urow[k..n-1], with urow[k] = head;
 * its numerators phi_k psi_j go to row_num[k+1..n-1]. */
static void recover_row(ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k, const cplx *phi,
                        const cplx *psi, const cplx *t, const cplx *s, cplx head,
                        cplx *urow, cplx *row_num)
{
    const cplx *phi_k = phi + k * alpha;
    urow[k] = head;
    for (ptrdiff_t j = k + 1; j < n; j++) {
        row_num[j] = dot(phi_k, psi + j * alpha, alpha);
        urow[j] = cdiv(row_num[j], csub(t[k], s[j]));
    }
}

/* Step-k column into col[k..n-1] and its numerators phi_j psi_k into
 * col_num[k..n-1]. */
static void recover_col(ptrdiff_t n, ptrdiff_t alpha, ptrdiff_t k, const cplx *phi,
                        const cplx *psi, const cplx *t, const cplx *s, cplx *col,
                        cplx *col_num)
{
    const cplx *psi_k = psi + k * alpha;
    for (ptrdiff_t j = k; j < n; j++) {
        col_num[j] = dot(phi + j * alpha, psi_k, alpha);
        col[j] = cdiv(col_num[j], csub(t[j], s[k]));
    }
}

/* |phi||psi| / (phi psi) entry of V, +inf where |phi psi| is below v_floor */
static inline double v_mag(double num, cplx den, double v_floor)
{
    double den_mag = cmag(den);
    return den_mag < v_floor ? INFINITY : num / den_mag;
}

/* Factor the Cauchy-type matrix with nodes t, s and generators phi (n x
 * alpha) and psi (stored transposed, n x alpha: row j is psi's column j).
 *
 * phi, psi, t, s, pidx and cidx are overwritten as elimination permutes and
 * updates them.  L must hold the identity and U zeros on entry; both are n x
 * n.  Per step k the trace arrays receive the pivot, its magnitude, the V
 * statistics and the hatted L column / U row norms; hat_ratio[k] is written
 * only when hat is nonzero, in which case inv_gap is n x n work space.
 * panel holds n x panel_width complex values: column k of L is gathered
 * there, row by row, and copied into L every panel_width steps.  work_c
 * holds 3n complex values, work_r 2n + (n + 2) alpha doubles.
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
                        double *v_col_max, double *v_row_max, cplx *v_kk, double *hat_ratio,
                        double *hat_l, double *hat_u, double *inv_gap, cplx *panel,
                        cplx *work_c, double *work_r, double *sums)
{
    cplx *col = work_c, *col_num = work_c + n, *row_num = work_c + 2 * n;
    double *col_mag = work_r, *row_mag = work_r + n;
    double *psi_abs = work_r + 2 * n;
    double *phi_k_abs = psi_abs + n * alpha, *psi_k_abs = phi_k_abs + alpha;
    double l_sq = 0.0, u_sq = 0.0;

    if (hat)
        for (ptrdiff_t i = 0; i < n; i++)
            for (ptrdiff_t j = 0; j < n; j++)
                inv_gap[i * n + j] = 1.0 / cmag(csub(t[i], s[j]));

    for (ptrdiff_t k = 0; k < n; k++) {
        cplx *urow = U + k * n;
        /* columns k0..k of L are held in the panel until it is flushed */
        ptrdiff_t k0 = k - k % panel_width, c = k - k0;
        if (hat)
            hat_ratio[k] = hat_ratio_step(n, alpha, k, phi, psi, inv_gap, psi_abs, phi_k_abs);

        recover_col(n, alpha, k, phi, psi, t, s, col, col_num);
        for (ptrdiff_t j = k; j < n; j++)
            col_mag[j] = cmag(col[j]);
        ptrdiff_t q = first_max(col_mag, k, n);
        double cand_max = col_mag[q];
        ptrdiff_t p = strategy == PIVOT_NONE ? k : q;
        int axis = 0;
        if (strategy == PIVOT_ROW1_COL1) {
            /* the diagonal entry belongs to both candidate sets; reusing the
             * column's value keeps a row-versus-column tie on the row */
            recover_row(n, alpha, k, phi, psi, t, s, col[k], urow, row_num);
            row_num[k] = col_num[k];
            row_mag[k] = col_mag[k];
            for (ptrdiff_t j = k + 1; j < n; j++)
                row_mag[j] = cmag(urow[j]);
            ptrdiff_t q_row = first_max(row_mag, k, n);
            if (row_mag[q_row] > cand_max)
                cand_max = row_mag[q_row];
            if (row_mag[q_row] > col_mag[p]) {
                axis = 1;
                p = q_row;
            }
        }

        /* a column interchange on R is a row interchange on R^T, whose
         * generators are (psi^T, phi^T): both swap a node, a permutation
         * entry, a generator row and the finished part of a factor */
        if (p != k && axis == 0) {
            swap_c(t + k, t + p);
            swap_i(pidx + k, pidx + p);
            swap_c(col + k, col + p);
            swap_c(col_num + k, col_num + p);
            swap_rows(phi + k * alpha, phi + p * alpha, alpha);
            swap_rows(L + k * n, L + p * n, k0);
            swap_rows(panel + k * panel_width, panel + p * panel_width, c);
            if (hat)
                for (ptrdiff_t j = 0; j < n; j++) {
                    double tmp = inv_gap[k * n + j];
                    inv_gap[k * n + j] = inv_gap[p * n + j];
                    inv_gap[p * n + j] = tmp;
                }
        } else if (p != k) {
            swap_c(s + k, s + p);
            swap_i(cidx + k, cidx + p);
            swap_c(urow + k, urow + p);
            swap_c(row_num + k, row_num + p);
            swap_rows(psi + k * alpha, psi + p * alpha, alpha);
            for (ptrdiff_t i = 0; i < k; i++)
                swap_c(U + i * n + k, U + i * n + p);
            if (hat)
                for (ptrdiff_t i = 0; i < n; i++) {
                    double tmp = inv_gap[i * n + k];
                    inv_gap[i * n + k] = inv_gap[i * n + p];
                    inv_gap[i * n + p] = tmp;
                }
        }
        cplx u_kk;
        if (axis == 0) {
            u_kk = col[k];
            recover_row(n, alpha, k, phi, psi, t, s, u_kk, urow, row_num);
        } else {
            u_kk = urow[k];
            recover_col(n, alpha, k, phi, psi, t, s, col, col_num);
            col[k] = u_kk;
        }
        row_num[k] = col_num[k];
        piv_index[k] = p;
        piv_is_col[k] = (unsigned char)axis;

        piv_mag[k] = cmag(u_kk);
        if (piv_mag[k] <= (double)n * eps * cand_max) {
            sums[2] = cand_max;
            return k;
        }

        /* V statistics and hatted norms at the pivoted step-k generators,
         * each generator read just before its Schur update:
         *   phi_j <- phi_j - l_jk phi_k,  psi_j <- psi_j - psi_k u_kj / u_kk.
         * |v_jk l_jk| = |phi_j||psi_k| / (|t_j - s_k| |u_kk|) and
         * |v_kj u_kj| = |phi_k||psi_j| / |t_k - s_j|: the V denominator
         * cancels, so degenerate ratios never reach the hatted norms. */
        const cplx *phi_k = phi + k * alpha, *psi_k = psi + k * alpha;
        for (ptrdiff_t m = 0; m < alpha; m++) {
            phi_k_abs[m] = cmag(phi_k[m]);
            psi_k_abs[m] = cmag(psi_k[m]);
        }
        divisor by_pivot = prepare(u_kk);

        double num = abs_dot(phi_k, psi_k_abs, alpha);
        double col_max = v_mag(num, col_num[k], v_floor);
        v_kk[k] = cmag(col_num[k]) < v_floor ? (cplx){INFINITY, 0.0}
                                              : cdiv((cplx){num, 0.0}, col_num[k]);
        double v_kk_mag = cmag(v_kk[k]);
        double hat_l_sq = v_kk_mag * v_kk_mag;
        for (ptrdiff_t j = k + 1; j < n; j++) {
            cplx *phi_j = phi + j * alpha;
            num = abs_dot(phi_j, psi_k_abs, alpha);
            double v = v_mag(num, col_num[j], v_floor);
            if (v > col_max)
                col_max = v;
            double h = num / (cmag(csub(t[j], s[k])) * piv_mag[k]);
            hat_l_sq += h * h;
            cplx l = divide(col[j], by_pivot);
            panel[j * panel_width + c] = l;
            l_sq += l.re * l.re + l.im * l.im;
            for (ptrdiff_t m = 0; m < alpha; m++) {
                cplx d = cmul(l, phi_k[m]);
                phi_j[m].re -= d.re;
                phi_j[m].im -= d.im;
            }
        }
        v_col_max[k] = col_max;
        hat_l[k] = sqrt(hat_l_sq);

        double row_max = 0.0, hat_u_sq = 0.0;
        for (ptrdiff_t j = k; j < n; j++) {
            cplx *psi_j = psi + j * alpha;
            num = abs_dot(psi_j, phi_k_abs, alpha);
            double v = v_mag(num, row_num[j], v_floor);
            if (j == k || v > row_max)
                row_max = v;
            double h = num / cmag(csub(t[k], s[j]));
            hat_u_sq += h * h;
            cplx u = urow[j];
            u_sq += u.re * u.re + u.im * u.im;
            if (j > k) {
                cplx w = divide(u, by_pivot);
                for (ptrdiff_t m = 0; m < alpha; m++) {
                    cplx d = cmul(psi_k[m], w);
                    psi_j[m].re -= d.re;
                    psi_j[m].im -= d.im;
                }
            }
        }
        v_row_max[k] = row_max;
        hat_u[k] = sqrt(hat_u_sq);

        if (c == panel_width - 1 || k == n - 1)
            for (ptrdiff_t j = k0 + 1; j < n; j++) {
                ptrdiff_t width = j - k0 < c + 1 ? j - k0 : c + 1;
                memcpy(L + j * n + k0, panel + j * panel_width, (size_t)width * sizeof(cplx));
            }
    }
    sums[0] = l_sq;
    sums[1] = u_sq;
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
