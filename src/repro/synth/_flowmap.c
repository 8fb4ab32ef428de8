/*
 * FlowMap's per-node min-height cut search (repro.synth.flowmap),
 * compiled.
 *
 * One call labels a whole DAG numbered densely in topological order.
 * For every non-source node it collects the (capped) fanin cone, marks
 * the sink side and the frontier, augments unit flows by depth-first
 * search over the implicit node-split residual network until the flow
 * exceeds k or the sink is cut off, and reads the min cut off the last
 * search.  flowmap.py's module docstring describes the network.  Every
 * step repeats the pure-Python loop it replaced operation for
 * operation (the same push and pop order, the same stamps), so labels,
 * cuts, the order of each cut's nodes and the two work counters are
 * identical to it.  All arithmetic is on integers.
 */
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int32_t k;
    int32_t cone_cap;
    const int32_t *fanin_off;    /* CSR over nodes: fanins, repeats kept */
    const int32_t *fanin;
    const int32_t *fanout_off;   /* CSR over nodes: distinct fanouts */
    const int32_t *fanout;
    const int32_t *label;
    /* Per-call scratch, reset by bumping a stamp instead of clearing:
     * cone/sink membership, the ``through`` flag and the carrying list
     * hold the stamp of the cone that set them, ``seen`` the number of
     * the search that visited a residual node; ``inflow`` and
     * ``parent`` are read only when set. */
    int64_t stamp;
    int64_t visit;               /* searches so far */
    int64_t cone_nodes;          /* cone members collected so far */
    int64_t *cone_mark;
    int64_t *sink_mark;
    int64_t *through;
    int64_t *carry_mark;
    int64_t *seen;               /* residual node 2v is in(v), 2v+1 out(v) */
    int32_t *inflow;             /* feeder of in(v): fanin id, -1 source */
    int32_t *parent;             /* search parent, -1 for the source */
    int32_t *cone;
    int32_t *dfs;                /* cone DFS stack */
    int32_t *frontier;
    int32_t *stack;              /* residual search stack */
    int32_t *carrying;           /* nodes given flow, first-set order */
} flowmap;

/* Transitive fanin cone of target (inclusive), capped; starts a new
 * stamp and marks every member.  Returns its size. */
static int32_t collect_cone(flowmap *s, int32_t target)
{
    const int64_t stamp = ++s->stamp;
    int32_t size = 0, top = 0;
    s->dfs[top++] = target;
    while (top) {
        int32_t v = s->dfs[--top];
        if (s->cone_mark[v] == stamp)
            continue;
        s->cone_mark[v] = stamp;
        s->cone[size++] = v;
        if (size >= s->cone_cap)
            break;
        for (int32_t e = s->fanin_off[v]; e < s->fanin_off[v + 1]; e++)
            s->dfs[top++] = s->fanin[e];
    }
    s->cone_nodes += size;
    return size;
}

static void push(flowmap *s, int32_t *top, int32_t y, int32_t x)
{
    s->seen[y] = s->visit;
    s->parent[y] = x;
    s->stack[(*top)++] = y;
}

/* Depth-first search from the super-source over the residual network.
 * Returns the out-node with an edge into the sink, or -1 when the sink
 * is unreachable. */
static int32_t search(flowmap *s, int32_t n_frontier)
{
    const int64_t visit = ++s->visit, stamp = s->stamp;
    int32_t top = 0;
    for (int32_t i = 0; i < n_frontier; i++)
        push(s, &top, 2 * s->frontier[i], -1);
    while (top) {
        int32_t x = s->stack[--top], v = x >> 1, y;
        if (!(x & 1)) {
            /* in(v): the unit edge to out(v) while v is free; once v
             * carries flow, only back along the edge that feeds it. */
            if (s->through[v] != stamp) {
                y = x + 1;
            } else {
                if (s->inflow[v] < 0)
                    continue;
                y = 2 * s->inflow[v] + 1;
            }
            if (s->seen[y] != visit)
                push(s, &top, y, x);
            continue;
        }
        /* out(v): INF edges to in(w) for every non-sink fanout in the
         * cone, or into the sink; back to in(v) when v carries flow. */
        for (int32_t e = s->fanout_off[v]; e < s->fanout_off[v + 1]; e++) {
            int32_t w = s->fanout[e];
            y = 2 * w;
            if (s->cone_mark[w] != stamp || s->seen[y] == visit)
                continue;
            if (s->sink_mark[w] == stamp)
                return x;
            push(s, &top, y, x);
        }
        if (s->through[v] == stamp && s->seen[x - 1] != visit)
            push(s, &top, x - 1, x);
    }
    return -1;
}

/* A K-feasible cut of height l_max - 1 for target, written to cut;
 * returns its size, or 0 when there is none. */
static int32_t min_height_cut(flowmap *s, int32_t target, int32_t l_max,
                              int32_t *cut)
{
    /* Every fanin is a source, so every cone node is on the sink side
     * and no flow (hence no cut) exists. */
    if (l_max == 0)
        return 0;
    const int32_t size = collect_cone(s, target);
    const int64_t stamp = s->stamp;
    int32_t n_frontier = 0;
    s->sink_mark[target] = stamp;
    for (int32_t i = 0; i < size; i++)
        if (s->label[s->cone[i]] == l_max)
            s->sink_mark[s->cone[i]] = stamp;
    if (size < s->cone_cap) {
        /* The DFS ran to completion, so the cone is closed under fanins
         * and only its sources face the super-source. */
        for (int32_t i = 0; i < size; i++) {
            int32_t v = s->cone[i];
            if (s->fanin_off[v] == s->fanin_off[v + 1])
                s->frontier[n_frontier++] = v;
        }
    } else {
        for (int32_t i = 0; i < size; i++) {
            int32_t v = s->cone[i], outside = 0;
            for (int32_t e = s->fanin_off[v]; e < s->fanin_off[v + 1]; e++)
                if (s->cone_mark[s->fanin[e]] != stamp) {
                    outside = 1;
                    break;
                }
            if (s->sink_mark[v] == stamp) {
                /* Truncation cut a sink-side node off from its fanins,
                 * so a source-to-sink path is missing from the network;
                 * be conservative. */
                if (outside)
                    return 0;
            } else if (outside || s->fanin_off[v] == s->fanin_off[v + 1]) {
                s->frontier[n_frontier++] = v;
            }
        }
    }

    /* Augment one unit per search path (all finite capacities are 1);
     * stop once the flow exceeds k. */
    int32_t flow = 0, n_carrying = 0;
    while (flow <= s->k) {
        int32_t x = search(s, n_frontier);
        if (x < 0)
            break;
        /* Walk back from the out-node that reached the sink, applying
         * each residual edge parent -> x. */
        while (x >= 0) {
            int32_t p = s->parent[x], v = x >> 1;
            if (p < 0) {
                s->inflow[v] = -1;             /* super-source -> in(v) */
            } else if (x & 1) {
                if (p == x - 1) {              /* in(v) -> out(v) */
                    s->through[v] = stamp;
                    if (s->carry_mark[v] != stamp) {
                        s->carry_mark[v] = stamp;
                        s->carrying[n_carrying++] = v;
                    }
                }
                /* else: in(w) -> out(v) cancels v -> w; the edge that
                 * entered in(w) overwrites its inflow next. */
            } else if (p == x + 1) {
                s->through[v] = 0;             /* cancels through flow */
            } else {
                s->inflow[v] = p >> 1;         /* out(u) -> in(v) */
            }
            x = p;
        }
        flow++;
    }
    if (flow > s->k)
        return 0;

    /* Min cut: interior nodes whose in-side is reachable in the
     * residual graph but whose out-side is not.  Only nodes carrying
     * flow qualify (a free in(v) reaches out(v)). */
    int32_t n_cut = 0;
    for (int32_t i = 0; i < n_carrying; i++) {
        int32_t v = s->carrying[i];
        if (s->through[v] == stamp && s->seen[2 * v] == s->visit
            && s->seen[2 * v + 1] != s->visit) {
            if (n_cut == s->k)
                return 0;
            cut[n_cut++] = v;
        }
    }
    return n_cut;
}

/*
 * Labels the n nodes, numbered in topological order.  For each node v,
 * label[v] is its label and cut_len[v] the size of its min-height cut,
 * whose ids are cut[v * k ...]; 0 means the node is a source or has no
 * cut of height label - 1.  work[0] = cone nodes collected, work[1] =
 * augmenting-path searches.  Returns 0, or -1 when out of memory.
 */
int flowmap_label(int32_t n, const int32_t *fanin_off, const int32_t *fanin,
                  const int32_t *fanout_off, const int32_t *fanout,
                  int32_t k, int32_t cone_cap, int32_t *label,
                  int32_t *cut_len, int32_t *cut, int64_t *work)
{
    /* One block of stamps and one of ids; each cone member pushes its
     * fanins once, so the cone DFS stack needs fanin_off[n] + 1. */
    int64_t *stamps = calloc(6 * (size_t)n + 1, sizeof(int64_t));
    int32_t *ids = calloc(8 * (size_t)n + fanin_off[n] + 1, sizeof(int32_t));
    if (!stamps || !ids) {
        free(stamps);
        free(ids);
        return -1;
    }
    flowmap s = {
        .k = k, .cone_cap = cone_cap,
        .fanin_off = fanin_off, .fanin = fanin,
        .fanout_off = fanout_off, .fanout = fanout, .label = label,
        .cone_mark = stamps, .sink_mark = stamps + n,
        .through = stamps + 2 * (size_t)n,
        .carry_mark = stamps + 3 * (size_t)n,
        .seen = stamps + 4 * (size_t)n,
        .inflow = ids, .parent = ids + n,
        .cone = ids + 3 * (size_t)n,
        .frontier = ids + 4 * (size_t)n,
        .stack = ids + 5 * (size_t)n,
        .carrying = ids + 7 * (size_t)n,
        .dfs = ids + 8 * (size_t)n,
    };
    for (int32_t v = 0; v < n; v++) {
        label[v] = 0;
        cut_len[v] = 0;
        if (fanin_off[v] == fanin_off[v + 1])
            continue;
        int32_t l_max = 0;
        for (int32_t e = fanin_off[v]; e < fanin_off[v + 1]; e++)
            if (label[fanin[e]] > l_max)
                l_max = label[fanin[e]];
        cut_len[v] = min_height_cut(&s, v, l_max, cut + (int64_t)v * k);
        label[v] = cut_len[v] ? l_max : l_max + 1;
    }
    work[0] = s.cone_nodes;
    work[1] = s.visit;
    free(stamps);
    free(ids);
    return 0;
}
