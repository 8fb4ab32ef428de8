/*
 * The simulated-annealing move loop of repro.place.sa, compiled.
 *
 * One call runs one temperature sweep: it draws the moves from the
 * caller's MT19937 state, evaluates each proposal in O(1) per touched
 * net from the per-net sorted coordinate segments, and installs the
 * accepted ones.  Every step repeats the pure-Python loop it replaced
 * operation for operation, so placements, costs and the generator
 * state are bit-identical to it; sa.py's module docstring gives the
 * argument.  Build with -ffp-contract=off: a fused multiply-add would
 * round w * (dx + dy) - cost once instead of twice.
 */
#include <math.h>
#include <stdint.h>

#define MT_N 624
#define MT_M 397

/* Flat cost state; the layout matches sa.SweepState. */
typedef struct {
    int32_t n_movable;
    int32_t cols;
    int32_t rows;
    const int32_t *movable;      /* instance index per movable slot */
    int32_t *col;                /* site column per instance */
    int32_t *row;                /* site row per instance */
    int32_t *occ;                /* instance per site r * cols + c, or -1 */
    const uint8_t *locked;       /* per instance */
    const double *col_x;         /* site-center x per column */
    const double *row_y;         /* site-center y per row */
    const int32_t *contrib_off;  /* CSR over instances: */
    const int32_t *contrib_net;  /*   (net, point multiplicity) */
    const int32_t *contrib_cnt;
    const int32_t *net_off;      /* CSR over nets: sorted x and y */
    double *xs;
    double *ys;
    const double *weight;        /* per net */
    double *cost;                /* installed cost per net */
    double *pend;                /* candidate cost of the move evaluated */
    int64_t *stamp;              /* move epoch that last touched a net */
    int64_t epoch;
    int64_t net_scans;           /* shared nets evaluated this sweep */
} sweep_state;

/* CPython's genrand_uint32 (Modules/_randommodule.c); mt[MT_N] is the
 * index, as in random.Random.getstate(). */
static uint32_t genrand(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* randrange(n) as random.Random draws it: getrandbits(n.bit_length())
 * with rejection.  getrandbits(k <= 32) is genrand() >> (32 - k). */
static int32_t below(uint32_t *mt, uint32_t n)
{
    int shift = 32;
    uint32_t r;
    for (uint32_t v = n; v; v >>= 1)
        shift--;
    do {
        r = genrand(mt) >> shift;
    } while (r >= n);
    return (int32_t)r;
}

/* random.Random.random(): 53 bits from two draws. */
static double uniform(uint32_t *mt)
{
    uint32_t a = genrand(mt) >> 5, b = genrand(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Extent of a sorted segment after ``n`` of its points move from
 * ``from`` to ``to``: the moved copies are the first (last) ``n``
 * entries when they sit on the low (high) boundary. */
static double moved_extent(const double *X, int32_t len, int32_t n,
                           double from, double to)
{
    double lo = X[0] == from ? X[n] : X[0];
    double hi = X[len - 1] == from ? X[len - 1 - n] : X[len - 1];
    if (to < lo)
        lo = to;
    if (to > hi)
        hi = to;
    return hi - lo;
}

/* Move one point of a sorted segment from ``from`` to ``to``. */
static void move_point(double *X, int32_t len, double from, double to)
{
    int32_t j = 0;
    while (X[j] != from)
        j++;
    if (to > from) {
        while (j + 1 < len && X[j + 1] < to) {
            X[j] = X[j + 1];
            j++;
        }
    } else {
        while (j > 0 && X[j - 1] > to) {
            X[j] = X[j - 1];
            j--;
        }
    }
    X[j] = to;
}

/* Stage the candidate costs of ``i``'s nets, its points moving
 * a -> b.  The ``mover`` stamps its nets.  A partner's net that
 * carries the stamp has a cell on both sites before and after the
 * swap, so its set of coordinates, and with it its extent, stays. */
static void stage_nets(sweep_state *s, int32_t i, int mx, int my,
                       double ax, double ay, double bx, double by,
                       int mover)
{
    for (int32_t e = s->contrib_off[i]; e < s->contrib_off[i + 1]; e++) {
        int32_t k = s->contrib_net[e], n = s->contrib_cnt[e];
        int32_t off = s->net_off[k], len = s->net_off[k + 1] - off;
        const double *X = s->xs + off, *Y = s->ys + off;
        int shared = !mover && s->stamp[k] == s->epoch;
        double dx, dy;
        if (mover)
            s->stamp[k] = s->epoch;
        s->net_scans += shared;
        dx = mx && !shared ? moved_extent(X, len, n, ax, bx)
                           : X[len - 1] - X[0];
        dy = my && !shared ? moved_extent(Y, len, n, ay, by)
                           : Y[len - 1] - Y[0];
        s->pend[k] = s->weight[k] * (dx + dy);
    }
}

/* Install ``i``'s staged costs and move its points a -> b. */
static void install_nets(sweep_state *s, int32_t i, int mx, int my,
                         double ax, double ay, double bx, double by)
{
    for (int32_t e = s->contrib_off[i]; e < s->contrib_off[i + 1]; e++) {
        int32_t k = s->contrib_net[e];
        int32_t off = s->net_off[k], len = s->net_off[k + 1] - off;
        s->cost[k] = s->pend[k];
        for (int32_t t = 0; t < s->contrib_cnt[e]; t++) {
            if (mx)
                move_point(s->xs + off, len, ax, bx);
            if (my)
                move_point(s->ys + off, len, ay, by);
        }
    }
}

/*
 * Propose ``moves`` moves at ``temperature``; out[0] = accepted,
 * out[1] = evaluated, out[2] = shared nets evaluated.  With ``deltas``
 * every proposal is applied and its signed cost delta stored (0.0 for
 * a null proposal), drawing no uniform: the initial-temperature
 * sampling.
 */
void sa_sweep(sweep_state *s, uint32_t *mt, int32_t range_limit,
              int64_t moves, double temperature, double *deltas,
              int64_t *out)
{
    const uint32_t span = 2 * (uint32_t)range_limit + 1;
    const int32_t cols = s->cols;
    int64_t accepted = 0, evaluated = 0;
    s->net_scans = 0;
    for (int64_t m = 0; m < moves; m++) {
        int32_t i = s->movable[below(mt, (uint32_t)s->n_movable)];
        int32_t c0 = s->col[i], r0 = s->row[i];
        int32_t c1 = c0 - range_limit + below(mt, span);
        int32_t r1;
        if (c1 < 0)
            c1 = 0;
        else if (c1 > cols - 1)
            c1 = cols - 1;
        r1 = r0 - range_limit + below(mt, span);
        if (r1 < 0)
            r1 = 0;
        else if (r1 > s->rows - 1)
            r1 = s->rows - 1;
        int mx = c1 != c0, my = r1 != r0;
        int32_t s1 = r1 * cols + c1, o = s->occ[s1];
        if (!(mx || my) || (o >= 0 && s->locked[o])) {
            if (deltas)
                deltas[m] = 0.0;
            continue;
        }
        evaluated++;
        double old_x = s->col_x[c0], new_x = s->col_x[c1];
        double old_y = s->row_y[r0], new_y = s->row_y[r1];
        s->epoch++;

        /* Stage every touched net, then sum the delta in first-touch
         * order: the mover's nets, then the partner's other nets. */
        stage_nets(s, i, mx, my, old_x, old_y, new_x, new_y, 1);
        if (o >= 0)
            stage_nets(s, o, mx, my, new_x, new_y, old_x, old_y, 0);
        double delta = 0.0;
        for (int32_t e = s->contrib_off[i]; e < s->contrib_off[i + 1]; e++) {
            int32_t k = s->contrib_net[e];
            delta += s->pend[k] - s->cost[k];
        }
        if (o >= 0) {
            for (int32_t e = s->contrib_off[o]; e < s->contrib_off[o + 1];
                 e++) {
                int32_t k = s->contrib_net[e];
                if (s->stamp[k] == s->epoch)  /* counted with the mover */
                    continue;
                delta += s->pend[k] - s->cost[k];
            }
        }

        if (deltas)
            deltas[m] = delta;
        else if (delta > 0 && !(uniform(mt) < exp(-delta / temperature)))
            continue;

        accepted++;
        s->col[i] = c1;
        s->row[i] = r1;
        s->occ[s1] = i;
        s->occ[r0 * cols + c0] = o;
        install_nets(s, i, mx, my, old_x, old_y, new_x, new_y);
        if (o >= 0) {
            s->col[o] = c0;
            s->row[o] = r0;
            install_nets(s, o, mx, my, new_x, new_y, old_x, old_y);
        }
    }
    out[0] = accepted;
    out[1] = evaluated;
    out[2] = s->net_scans;
}
