/* Compiled event core for the AEDB broadcast simulator (DESIGN.md §14).
 *
 * One layer, pinned bit-identical to the pure-Python reference:
 * ``run_window`` runs the whole broadcast window of one
 * ``BroadcastSimulator`` run as a single C event loop (window beacon
 * snapshot swaps, frame transmission/resolution with SINR capture, and
 * the AEDB decision kernel, flattened into typed arrays).
 * ``probe_ops`` exposes the kernel's IEEE-exact arithmetic so the
 * Python layer can check it before trusting the kernel.
 *
 * Bit-identity strategy (probed on this host, see DESIGN.md §14):
 * every IEEE-exact operation (+ - * / sqrt fmod fabs comparisons) runs
 * natively in C, compiled with ``-ffp-contract=off`` so no FMA
 * contraction can change results; the two transcendental steps the
 * reference evaluates through numpy ufuncs (``np.log10`` for path loss,
 * ``np.power(10, ·)`` for dBm→mW) are *bridged back into numpy itself*
 * — the kernel fills a scratch ndarray and calls the very ufunc objects
 * the pure path calls.  Both ufuncs are position-independent (same
 * scalar value → same bits at any offset/length/shape), so per-row
 * bridging reproduces the reference's full-matrix calls exactly.
 *
 * No numpy C API is used: arrays come in through the buffer protocol,
 * which keeps the extension buildable with nothing but a C compiler.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>
#include <stdlib.h>

/* ------------------------------------------------------------------ */
/* run_window kernel                                                  */
/* ------------------------------------------------------------------ */

/* fparams indices (keep in sync with repro/manet/compiled.py) */
enum {
    FP_WARMUP, FP_HORIZON, FP_AIRTIME, FP_DETECTION, FP_CAPTURE_LIN,
    FP_MIN_TX, FP_MAX_TX, FP_DEFAULT_TX, FP_REF_D, FP_REF_LOSS, FP_SCALE,
    FP_BORDER, FP_DELAY_LO, FP_DELAY_HI, FP_NBR_THRESHOLD, FP_MARGIN,
    FP_REQUIRED, FP_MAC_JITTER, FP_EXPIRY, FP_MOB_STEP, FP_SIDE,
    FP_COUNT
};

/* iparams indices */
enum {
    IP_N, IP_SOURCE, IP_WINDOW, IP_RECORD, IP_MOB_MODE, IP_MOB_WIDTH,
    IP_FOLD_ONE, IP_RNG_OFFSET,
    IP_COUNT
};

/* counts_out indices */
enum {
    CN_FIRED, CN_FRAMES, CN_RESOLVED, CN_DRAWS, CN_DECISIONS,
    CN_COUNT
};

/* mobility replay modes (mirror repro.manet.mobility.KernelTrace) and
 * the number of trace arrays each one reads */
enum { MOB_STATIC = 0, MOB_EPOCHS = 1, MOB_LEGS = 2, MOB_TICKS = 3,
       MOB_MODES };
static const Py_ssize_t mob_n_arrays[MOB_MODES] = {1, 3, 5, 1};

/* protocol state codes (mirror repro.manet.aedb) */
enum { ST_IDLE = 0, ST_WAITING = 1, ST_DROPPED = 2, ST_FORWARDED = 3 };

/* decision kinds (formatted by repro/manet/compiled.py) */
enum { DK_SOURCE = 0, DK_DROP_FIRST = 1, DK_ARM = 2, DK_DROP_TIMER = 3,
       DK_FORWARD = 4 };

/* event kinds */
enum { EV_BEACON = 0, EV_TRANSMIT = 1, EV_RESOLVE = 2, EV_TIMER = 3 };

typedef struct {
    double t;
    long long seq;
    int kind;
    long a;      /* beacon tick / node / frame index */
    double b;    /* TRANSMIT power */
} KEvent;

typedef struct {
    /* scalars */
    long n, source, W, mob_width;
    int record, mob_mode, fold_one;
    double warmup, horizon, airtime, detection, capture_lin, min_tx,
        max_tx, default_tx, ref_d, ref_loss, scale, border, delay_lo,
        delay_hi, nbr_threshold, margin, required, mac_jitter, expiry,
        mob_step, side;
    /* rng */
    const double *doubles;
    long n_doubles, draw;
    /* tables (current snapshot pointers; swapped at beacon events) */
    const double *rx_cur, *seen_cur;
    const double **win_rx, **win_seen;
    /* mobility (width = E epochs, L legs or T ticks) */
    const double *grid_pos;            /* static (n, 2) / ticks (T, n, 2) */
    const double *walk_starts;         /* (E, n, 2) */
    const double *walk_vel;            /* (E, n, 2) */
    const unsigned char *walk_neg;     /* (E,) */
    const double *leg_start, *leg_end; /* (n, L) */
    const double *leg_p0, *leg_vel;    /* (n, L, 2) */
    const long long *leg_count;        /* (n,), each in [1, L] */
    double *pos;                       /* (n, 2) scratch */
    /* ufunc bridge */
    PyObject *log10_obj, *power_obj, *ten_obj;
    PyObject *scratch_a_obj, *scratch_b_obj;
    double *sa, *sb;                   /* scratch buffers, length n */
    /* protocol state (output arrays, written in place) */
    double *first_rx, *strongest, *timer_deadline;
    signed char *state;
    unsigned char *heard;              /* (n, n) */
    /* frames */
    double *fr_sender, *fr_power, *fr_start, *fr_flag;  /* frame_out cols */
    double *fr_end;                    /* scratch */
    long n_frames;
    long *active, *recent, *overlap;
    long n_active, n_recent;
    /* per-resolve scratch */
    double *rx;                        /* delivery rx vector */
    unsigned char *elig;
    long *det;
    double *interf;
    /* decisions */
    double *decisions;                 /* (2n+1, 4) */
    long n_decisions, dec_cap;
    /* event heap */
    KEvent *heap;
    long heap_len, heap_cap;
    long long seq;
    /* counters */
    long long fired;
    double energy;
    long n_resolved;
} Kernel;

static int
k_fail(const char *what)
{
    PyErr_Format(PyExc_RuntimeError, "evcore invariant violated: %s", what);
    return -1;
}

static int
k_push(Kernel *k, double t, int kind, long a, double b)
{
    if (k->heap_len >= k->heap_cap)
        return k_fail("event heap overflow");
    KEvent *heap = k->heap;
    long i = k->heap_len++;
    KEvent item = {t, k->seq++, kind, a, b};
    while (i > 0) {
        long parent = (i - 1) >> 1;
        KEvent *p = &heap[parent];
        if (!(item.t < p->t || (item.t == p->t && item.seq < p->seq)))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
    return 0;
}

static KEvent
k_pop(Kernel *k)
{
    KEvent *heap = k->heap;
    KEvent top = heap[0];
    KEvent last = heap[--k->heap_len];
    long n = k->heap_len, i = 0;
    while (1) {
        long child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            (heap[child + 1].t < heap[child].t ||
             (heap[child + 1].t == heap[child].t &&
              heap[child + 1].seq < heap[child].seq)))
            child += 1;
        if (!(heap[child].t < last.t ||
              (heap[child].t == last.t && heap[child].seq < last.seq)))
            break;
        heap[i] = heap[child];
        i = child;
    }
    if (n > 0)
        heap[i] = last;
    return top;
}

static int
k_decision(Kernel *k, double t, long node, int kind, double value)
{
    if (k->n_decisions >= k->dec_cap)
        return k_fail("decision log overflow");
    double *row = k->decisions + 4 * k->n_decisions++;
    row[0] = t;
    row[1] = (double)node;
    row[2] = (double)kind;
    row[3] = value;
    return 0;
}

/* np.log10(scratch_a, out=scratch_a) via the exact ufunc object the
 * pure path calls; entries [m, n) are parked at 1.0 so the tail is
 * warning-free.  Same helper shape for np.power(10.0, scratch_b). */
static int
k_log10(Kernel *k, long m)
{
    for (long i = m; i < k->n; i++)
        k->sa[i] = 1.0;
    PyObject *r = PyObject_CallFunctionObjArgs(
        k->log10_obj, k->scratch_a_obj, k->scratch_a_obj, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int
k_pow10(Kernel *k, long m)
{
    for (long i = m; i < k->n; i++)
        k->sb[i] = 0.0;
    PyObject *r = PyObject_CallFunctionObjArgs(
        k->power_obj, k->ten_obj, k->scratch_b_obj, k->scratch_b_obj, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* np.clip(x, 0, side) as numpy spells it: NaN passes through, then two
 * compare-selects (so -0.0 clips to +0.0, unlike fmax). */
static inline double
k_clip(double x, double side)
{
    if (isnan(x))
        return x;
    x = x > 0.0 ? x : 0.0;
    return x < side ? x : side;
}

/* Positions at ``t``, bit for bit what the model's positions_at gives:
 * fixed positions; RandomWalkMobility (mul, add, one-period fold or
 * floored mod, then the triangle wave); the leg table of the waypoint
 * and direction models (first leg with t < end, parked past the last
 * one, then clipped); GaussMarkovMobility's tick-grid interpolation. */
static const double *
k_positions(Kernel *k, double t)
{
    if (k->mob_mode == MOB_STATIC)
        return k->grid_pos;
    long n2 = 2 * k->n;
    double *pos = k->pos;
    if (k->mob_mode == MOB_LEGS) {
        long L = k->mob_width;
        for (long i = 0; i < k->n; i++) {
            const double *end = k->leg_end + (size_t)i * L;
            long c = (long)k->leg_count[i];
            long j = 0;
            double tt = t;
            while (j < c && !(t < end[j]))
                j++;
            if (j == c) {   /* parked at the last leg's end */
                j = c - 1;
                tt = end[j];
            }
            size_t leg = (size_t)i * L + j;
            double dt = tt - k->leg_start[leg];
            for (long a = 0; a < 2; a++) {
                double v = k->leg_vel[2 * leg + a] * dt;
                pos[2 * i + a] = k_clip(k->leg_p0[2 * leg + a] + v, k->side);
            }
        }
        return pos;
    }
    if (k->mob_mode == MOB_TICKS) {
        double x = t / k->mob_step;
        long last = k->mob_width - 2;
        long tick = x < (double)last ? (long)x : last;
        double frac = x - (double)tick;
        if (1.0 < frac)   /* Python's min(frac, 1.0): ties keep frac */
            frac = 1.0;
        double wa = 1.0 - frac;
        const double *a = k->grid_pos + (size_t)tick * n2;
        const double *b = a + n2;
        for (long i = 0; i < n2; i++) {
            double u = wa * a[i];
            double w = frac * b[i];
            pos[i] = u + w;
        }
        return pos;
    }
    long e = (long)(t / k->mob_step);
    if (e > k->mob_width - 1)
        e = k->mob_width - 1;
    double dt = t - (double)e * k->mob_step;
    const double *sk = k->walk_starts + (size_t)e * n2;
    const double *vk = k->walk_vel + (size_t)e * n2;
    for (long i = 0; i < n2; i++) {
        double v = vk[i] * dt;
        pos[i] = v + sk[i];
    }
    double side = k->side;
    double period = 2.0 * side;
    if (k->fold_one && dt <= k->mob_step) {
        if (k->walk_neg[e]) {
            for (long i = 0; i < n2; i++)
                if (pos[i] < 0.0)
                    pos[i] = pos[i] + period;
        }
    } else {
        for (long i = 0; i < n2; i++) {
            double m = fmod(pos[i], period);
            if (m != 0.0 && ((period < 0.0) != (m < 0.0)))
                m = m + period;
            pos[i] = m;
        }
    }
    for (long i = 0; i < n2; i++) {
        double v = pos[i] - side;
        v = fabs(v);
        pos[i] = side - v;
    }
    return pos;
}

static int k_do_transmit(Kernel *k, long sender, double power, double t);

/* AEDBProtocol._select_tx_power, scan spelling (bit-identical to the
 * reference's scanned live_mask — both evaluate the same freshness
 * predicate on the same floats). */
static double
k_select_tx_power(Kernel *k, long node, double t)
{
    long n = k->n;
    const double *nrx = k->rx_cur + (size_t)node * n;
    const double *nseen = k->seen_cur + (size_t)node * n;
    const unsigned char *nheard = k->heard + (size_t)node * n;
    unsigned char *live = k->elig;   /* free between resolves */
    long in_fwd_count = 0;
    for (long j = 0; j < n; j++) {
        unsigned char lv =
            ((t - nseen[j]) <= k->expiry) && (j != node);
        live[j] = lv;
        if (lv && nrx[j] <= k->border)
            in_fwd_count++;
    }
    long target = 0;
    if ((double)in_fwd_count > k->nbr_threshold) {
        /* dense regime: argmax over in-forwarding-area rx (-inf fill,
         * first occurrence on ties — strict > keeps the lowest id) */
        double best = -INFINITY;
        for (long j = 0; j < n; j++) {
            double v = (live[j] && nrx[j] <= k->border) ? nrx[j]
                                                        : -INFINITY;
            if (v > best) {
                best = v;
                target = j;
            }
        }
    } else {
        /* sparse regime: furthest live neighbour not already heard
         * from; no candidates → full power */
        int any = 0;
        for (long j = 0; j < n; j++) {
            live[j] = live[j] && !nheard[j];
            if (live[j])
                any = 1;
        }
        if (!any)
            return k->max_tx;
        double best = INFINITY;
        for (long j = 0; j < n; j++) {
            double v = live[j] ? nrx[j] : INFINITY;
            if (v < best) {
                best = v;
                target = j;
            }
        }
    }
    double loss = k->default_tx - nrx[target];
    double power = k->required + loss;
    power = power + k->margin;
    if (power < k->min_tx)
        power = k->min_tx;
    if (power > k->max_tx)
        power = k->max_tx;
    return power;
}

/* AEDBProtocol._first_copy */
static int
k_first_copy(Kernel *k, long node, double rx, double t)
{
    k->first_rx[node] = t;
    k->strongest[node] = rx;
    if (rx > k->border) {
        k->state[node] = ST_DROPPED;
        if (k->record && k_decision(k, t, node, DK_DROP_FIRST, 0.0) < 0)
            return -1;
        return 0;
    }
    k->state[node] = ST_WAITING;
    double delay;
    if (k->delay_hi > k->delay_lo) {
        if (k->draw >= k->n_doubles)
            return k_fail("uniform stream exhausted");
        double u = k->doubles[k->draw++];
        delay = k->delay_lo + (k->delay_hi - k->delay_lo) * u;
    } else {
        delay = k->delay_lo;
    }
    double fire = t + delay;
    k->timer_deadline[node] = fire;
    if (k_push(k, fire, EV_TIMER, node, 0.0) < 0)
        return -1;
    if (k->record && k_decision(k, t, node, DK_ARM, delay) < 0)
        return -1;
    return 0;
}

/* AEDBProtocol._on_timer (timers are never cancelled on this path) */
static int
k_on_timer(Kernel *k, long node, double t)
{
    if (k->state[node] != ST_WAITING)
        return 0;
    if (k->strongest[node] > k->border) {
        k->state[node] = ST_DROPPED;
        if (k->record && k_decision(k, t, node, DK_DROP_TIMER, 0.0) < 0)
            return -1;
        return 0;
    }
    double power = k_select_tx_power(k, node, t);
    k->state[node] = ST_FORWARDED;
    if (k->record && k_decision(k, t, node, DK_FORWARD, power) < 0)
        return -1;
    double jitter = 0.0;
    if (k->mac_jitter > 0.0) {
        if (k->draw >= k->n_doubles)
            return k_fail("uniform stream exhausted");
        double u = k->doubles[k->draw++];
        jitter = 0.0 + (k->mac_jitter - 0.0) * u;
    }
    /* BroadcastSimulator._transmit: now == t inside this callback */
    double t2 = t + jitter;
    if (t2 <= t)
        return k_do_transmit(k, node, power, t);
    return k_push(k, t2, EV_TRANSMIT, node, power);
}

/* RadioMedium.transmit */
static int
k_do_transmit(Kernel *k, long sender, double power, double t)
{
    if (power < k->min_tx)
        power = k->min_tx;
    if (power > k->max_tx)
        power = k->max_tx;
    if (k->n_frames >= k->n)
        return k_fail("frame table overflow");
    long f = k->n_frames++;
    k->fr_sender[f] = (double)sender;
    k->fr_power[f] = power;
    k->fr_start[f] = t;
    k->fr_end[f] = t + k->airtime;
    k->active[k->n_active++] = f;
    k->energy += power;
    return k_push(k, k->fr_end[f], EV_RESOLVE, f, 0.0);
}

/* AEDBProtocol.on_receive for every eligible receiver, one ascending
 * pass (the delivery order of RadioMedium._resolve — see DESIGN.md §14
 * for the equivalence argument). */
static int
k_deliver(Kernel *k, long f, double t)
{
    long n = k->n;
    long sender = (long)k->fr_sender[f];
    for (long r = 0; r < n; r++) {
        if (!k->elig[r])
            continue;
        k->heard[(size_t)r * n + sender] = 1;
        signed char st = k->state[r];
        if (st == ST_WAITING) {
            if (k->rx[r] > k->strongest[r])
                k->strongest[r] = k->rx[r];
        } else if (st == ST_IDLE) {
            if (k_first_copy(k, r, k->rx[r], t) < 0)
                return -1;
        }
    }
    return 0;
}

/* RadioMedium._resolve with the inlined log-distance chain (the only
 * configuration the kernel accepts). */
static int
k_resolve(Kernel *k, long f, double t)
{
    long n = k->n;
    k->n_resolved++;
    /* active.remove(frame): first occurrence, order-preserving */
    long idx = -1;
    for (long i = 0; i < k->n_active; i++)
        if (k->active[i] == f) {
            idx = i;
            break;
        }
    if (idx < 0)
        return k_fail("resolving frame not in active list");
    for (long i = idx; i < k->n_active - 1; i++)
        k->active[i] = k->active[i + 1];
    k->n_active--;
    k->recent[k->n_recent++] = f;
    double tcut = t - 2.0 * k->airtime;
    if (k->fr_end[k->recent[0]] < tcut) {
        long w = 0;
        for (long i = 0; i < k->n_recent; i++)
            if (k->fr_end[k->recent[i]] >= tcut)
                k->recent[w++] = k->recent[i];
        k->n_recent = w;
    }
    const double *P =
        k_positions(k, 0.5 * (k->fr_start[f] + k->fr_end[f]));
    if (P == NULL)
        return -1;
    /* overlap scan: active then recent, list order */
    long n_ov = 0;
    if (!(k->n_active == 0 && k->n_recent == 1)) {
        for (long i = 0; i < k->n_active; i++) {
            long g = k->active[i];
            if (g != f && k->fr_start[g] < k->fr_end[f] &&
                k->fr_start[f] < k->fr_end[g])
                k->overlap[n_ov++] = g;
        }
        for (long i = 0; i < k->n_recent; i++) {
            long g = k->recent[i];
            if (g != f && k->fr_start[g] < k->fr_end[f] &&
                k->fr_start[f] < k->fr_end[g])
                k->overlap[n_ov++] = g;
        }
    }
    /* rx chain (diff → dist² → sqrt → clamp → log10 → scale) */
    long sender = (long)k->fr_sender[f];
    double sx = P[2 * sender], sy = P[2 * sender + 1];
    for (long j = 0; j < n; j++) {
        double dx = P[2 * j] - sx;
        double dy = P[2 * j + 1] - sy;
        double xx = dx * dx;
        double yy = dy * dy;
        double d2 = xx + yy;
        double d = sqrt(d2);
        if (d < k->ref_d)
            d = k->ref_d;
        if (k->ref_d != 1.0)
            d = d / k->ref_d;
        k->sa[j] = d;
    }
    if (k_log10(k, n) < 0)
        return -1;
    double txp = k->fr_power[f];
    for (long j = 0; j < n; j++) {
        double loss = k->sa[j] * k->scale;
        loss = loss + k->ref_loss;
        double rxj = txp - loss;
        k->rx[j] = rxj;
        k->elig[j] = rxj >= k->detection;
    }
    if (n_ov > 0) {
        k->elig[sender] = 0;
        for (long i = 0; i < n_ov; i++)
            k->elig[(long)k->fr_sender[k->overlap[i]]] = 0;
        long ndet = 0;
        for (long j = 0; j < n; j++) {
            if (k->elig[j])
                k->det[ndet++] = j;
            k->elig[j] = 0;
        }
        if (ndet > 0) {
            for (long m = 0; m < ndet; m++)
                k->interf[m] = 0.0;
            for (long i = 0; i < n_ov; i++) {
                long g = k->overlap[i];
                long os = (long)k->fr_sender[g];
                double ox = P[2 * os], oy = P[2 * os + 1];
                double op = k->fr_power[g];
                for (long m = 0; m < ndet; m++) {
                    long j = k->det[m];
                    double dx = P[2 * j] - ox;
                    double dy = P[2 * j + 1] - oy;
                    double xx = dx * dx;
                    double yy = dy * dy;
                    double d2 = xx + yy;
                    double d = sqrt(d2);
                    if (d < k->ref_d)
                        d = k->ref_d;
                    d = d / k->ref_d;   /* generic chain always divides */
                    k->sa[m] = d;
                }
                if (k_log10(k, ndet) < 0)
                    return -1;
                for (long m = 0; m < ndet; m++) {
                    double l = k->scale * k->sa[m];
                    double loss = k->ref_loss + l;
                    double rxi = op - loss;
                    k->sb[m] = rxi / 10.0;
                }
                if (k_pow10(k, ndet) < 0)
                    return -1;
                for (long m = 0; m < ndet; m++)
                    k->interf[m] = k->interf[m] + k->sb[m];
            }
            for (long m = 0; m < ndet; m++)
                k->sb[m] = k->rx[k->det[m]] / 10.0;
            if (k_pow10(k, ndet) < 0)
                return -1;
            for (long m = 0; m < ndet; m++) {
                long j = k->det[m];
                k->elig[j] = (k->interf[m] > 0.0)
                                 ? (k->sb[m] >= k->capture_lin * k->interf[m])
                                 : 1;
            }
        }
    } else {
        k->elig[sender] = 0;
    }
    return k_deliver(k, f, t);
}

/* Acquire a buffer; itemsize/min-length checked by the caller wrapper. */
static int
get_buf(PyObject *obj, Py_buffer *view, int writable, Py_ssize_t min_items,
        Py_ssize_t itemsize, const char *name)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != itemsize ||
        view->len < min_items * itemsize) {
        PyErr_Format(PyExc_ValueError,
                     "evcore: bad buffer for %s (itemsize %zd, len %zd; "
                     "need itemsize %zd x %zd items)",
                     name, view->itemsize, view->len, itemsize, min_items);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
evcore_run_window(PyObject *self, PyObject *args)
{
    PyObject *fparams_o, *iparams_o, *doubles_o, *start_rx_o, *start_seen_o,
        *win_times_o, *win_rx_o, *win_seen_o, *mob_o, *scratch_a_o,
        *scratch_b_o, *log10_o, *power_o, *first_rx_o, *strongest_o,
        *state_o, *heard_o, *frame_o, *timer_o, *decisions_o, *counts_o;
    if (!PyArg_ParseTuple(
            args, "OOOOOOOOOOOOOOOOOOOOO:run_window",
            &fparams_o, &iparams_o, &doubles_o, &start_rx_o, &start_seen_o,
            &win_times_o, &win_rx_o, &win_seen_o, &mob_o, &scratch_a_o,
            &scratch_b_o, &log10_o, &power_o, &first_rx_o, &strongest_o,
            &state_o, &heard_o, &frame_o, &timer_o, &decisions_o,
            &counts_o))
        return NULL;

    Kernel k;
    memset(&k, 0, sizeof(k));
    PyObject *result = NULL;

    /* fixed buffers (indices into bufs[]; released in the epilogue) */
    enum { B_FPARAMS, B_IPARAMS, B_DOUBLES, B_START_RX, B_START_SEEN,
           B_WIN_TIMES, B_MOB0, B_MOB1, B_MOB2, B_MOB3, B_MOB4, B_SA, B_SB,
           B_FIRST_RX, B_STRONGEST, B_STATE, B_HEARD, B_FRAME, B_TIMER,
           B_DECISIONS, B_COUNTS, B_FIXED };
    Py_buffer bufs[B_FIXED];
    char held[B_FIXED];
    memset(held, 0, sizeof(held));
    Py_buffer *wbufs = NULL;   /* 2W window-snapshot buffers */
    long n_wbufs = 0;

#define GETBUF(slot, obj, writable, min_items, itemsize, name)            \
    do {                                                                  \
        if (get_buf((obj), &bufs[slot], (writable), (min_items),          \
                    (itemsize), (name)) < 0)                              \
            goto done;                                                    \
        held[slot] = 1;                                                   \
    } while (0)

    GETBUF(B_FPARAMS, fparams_o, 0, FP_COUNT, 8, "fparams");
    GETBUF(B_IPARAMS, iparams_o, 0, IP_COUNT, 8, "iparams");
    const double *fp = (const double *)bufs[B_FPARAMS].buf;
    const long long *ip = (const long long *)bufs[B_IPARAMS].buf;

    long n = (long)ip[IP_N];
    long W = (long)ip[IP_WINDOW];
    k.n = n;
    k.source = (long)ip[IP_SOURCE];
    k.W = W;
    k.record = (int)ip[IP_RECORD];
    k.mob_mode = (int)ip[IP_MOB_MODE];
    k.mob_width = (long)ip[IP_MOB_WIDTH];
    k.fold_one = (int)ip[IP_FOLD_ONE];
    k.warmup = fp[FP_WARMUP];
    k.horizon = fp[FP_HORIZON];
    k.airtime = fp[FP_AIRTIME];
    k.detection = fp[FP_DETECTION];
    k.capture_lin = fp[FP_CAPTURE_LIN];
    k.min_tx = fp[FP_MIN_TX];
    k.max_tx = fp[FP_MAX_TX];
    k.default_tx = fp[FP_DEFAULT_TX];
    k.ref_d = fp[FP_REF_D];
    k.ref_loss = fp[FP_REF_LOSS];
    k.scale = fp[FP_SCALE];
    k.border = fp[FP_BORDER];
    k.delay_lo = fp[FP_DELAY_LO];
    k.delay_hi = fp[FP_DELAY_HI];
    k.nbr_threshold = fp[FP_NBR_THRESHOLD];
    k.margin = fp[FP_MARGIN];
    k.required = fp[FP_REQUIRED];
    k.mac_jitter = fp[FP_MAC_JITTER];
    k.expiry = fp[FP_EXPIRY];
    k.mob_step = fp[FP_MOB_STEP];
    k.side = fp[FP_SIDE];

    if (n <= 0 || W <= 0 || k.source < 0 || k.source >= n) {
        PyErr_SetString(PyExc_ValueError, "evcore: bad n/W/source");
        goto done;
    }

    GETBUF(B_DOUBLES, doubles_o, 0, 0, 8, "doubles");
    k.doubles = (const double *)bufs[B_DOUBLES].buf;
    k.n_doubles = (long)(bufs[B_DOUBLES].len / 8);
    k.draw = (long)ip[IP_RNG_OFFSET];

    GETBUF(B_START_RX, start_rx_o, 0, n * n, 8, "start_rx");
    GETBUF(B_START_SEEN, start_seen_o, 0, n * n, 8, "start_seen");
    k.rx_cur = (const double *)bufs[B_START_RX].buf;
    k.seen_cur = (const double *)bufs[B_START_SEEN].buf;

    GETBUF(B_WIN_TIMES, win_times_o, 0, W, 8, "window_times");
    const double *win_times = (const double *)bufs[B_WIN_TIMES].buf;

    if (!PyTuple_Check(win_rx_o) || !PyTuple_Check(win_seen_o) ||
        PyTuple_GET_SIZE(win_rx_o) != W ||
        PyTuple_GET_SIZE(win_seen_o) != W) {
        PyErr_SetString(PyExc_ValueError,
                        "evcore: window snapshots must be W-tuples");
        goto done;
    }
    wbufs = (Py_buffer *)PyMem_Calloc(2 * (size_t)W, sizeof(Py_buffer));
    k.win_rx = (const double **)PyMem_Malloc(W * sizeof(double *));
    k.win_seen = (const double **)PyMem_Malloc(W * sizeof(double *));
    if (wbufs == NULL || k.win_rx == NULL || k.win_seen == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (long w = 0; w < W; w++) {
        if (get_buf(PyTuple_GET_ITEM(win_rx_o, w), &wbufs[n_wbufs], 0,
                    n * n, 8, "window_rx") < 0)
            goto done;
        k.win_rx[w] = (const double *)wbufs[n_wbufs++].buf;
        if (get_buf(PyTuple_GET_ITEM(win_seen_o, w), &wbufs[n_wbufs], 0,
                    n * n, 8, "window_seen") < 0)
            goto done;
        k.win_seen[w] = (const double *)wbufs[n_wbufs++].buf;
    }

    /* mobility trace: validate the shape before any read */
    if (k.mob_mode < 0 || k.mob_mode >= MOB_MODES) {
        PyErr_Format(PyExc_ValueError, "evcore: unknown mobility mode %d",
                     k.mob_mode);
        goto done;
    }
    if (!PyTuple_Check(mob_o) ||
        PyTuple_GET_SIZE(mob_o) != mob_n_arrays[k.mob_mode]) {
        PyErr_Format(PyExc_ValueError,
                     "evcore: mobility mode %d takes a %zd-tuple of arrays",
                     k.mob_mode, mob_n_arrays[k.mob_mode]);
        goto done;
    }
    long min_width = k.mob_mode == MOB_TICKS ? 2 : 1;
    if (k.mob_mode != MOB_STATIC &&
        (k.mob_width < min_width ||
         k.mob_width > (PY_SSIZE_T_MAX / 16) / n)) {
        PyErr_Format(PyExc_ValueError,
                     "evcore: %s %ld out of range (need >= %ld)",
                     k.mob_mode == MOB_TICKS ? "tick count"
                     : k.mob_mode == MOB_LEGS ? "leg table width"
                                               : "epoch count",
                     k.mob_width, min_width);
        goto done;
    }
    if ((k.mob_mode == MOB_EPOCHS || k.mob_mode == MOB_TICKS) &&
        !(k.mob_step > 0.0)) {
        PyErr_SetString(PyExc_ValueError,
                        "evcore: mobility step must be positive");
        goto done;
    }
#define MOBBUF(i, min_items, itemsize, name)                              \
    GETBUF(B_MOB0 + (i), PyTuple_GET_ITEM(mob_o, (i)), 0, (min_items),    \
           (itemsize), (name))
    Py_ssize_t width = k.mob_width;
    switch (k.mob_mode) {
    case MOB_STATIC:
        MOBBUF(0, 2 * n, 8, "static_pos");
        k.grid_pos = (const double *)bufs[B_MOB0].buf;
        break;
    case MOB_EPOCHS:
        MOBBUF(0, width * 2 * n, 8, "walk_starts");
        MOBBUF(1, width * 2 * n, 8, "walk_vel");
        MOBBUF(2, width, 1, "walk_epoch_neg");
        k.walk_starts = (const double *)bufs[B_MOB0].buf;
        k.walk_vel = (const double *)bufs[B_MOB1].buf;
        k.walk_neg = (const unsigned char *)bufs[B_MOB2].buf;
        break;
    case MOB_LEGS:
        MOBBUF(0, width * n, 8, "leg_start");
        MOBBUF(1, width * n, 8, "leg_end");
        MOBBUF(2, width * 2 * n, 8, "leg_p0");
        MOBBUF(3, width * 2 * n, 8, "leg_vel");
        MOBBUF(4, n, 8, "leg_count");
        k.leg_start = (const double *)bufs[B_MOB0].buf;
        k.leg_end = (const double *)bufs[B_MOB1].buf;
        k.leg_p0 = (const double *)bufs[B_MOB2].buf;
        k.leg_vel = (const double *)bufs[B_MOB3].buf;
        k.leg_count = (const long long *)bufs[B_MOB4].buf;
        for (long i = 0; i < n; i++) {
            if (k.leg_count[i] < 1 || k.leg_count[i] > k.mob_width) {
                PyErr_Format(PyExc_ValueError,
                             "evcore: leg count %lld of node %ld outside "
                             "[1, %ld]",
                             k.leg_count[i], i, k.mob_width);
                goto done;
            }
        }
        break;
    case MOB_TICKS:
        MOBBUF(0, width * 2 * n, 8, "tick_pos");
        k.grid_pos = (const double *)bufs[B_MOB0].buf;
        break;
    }
#undef MOBBUF

    GETBUF(B_SA, scratch_a_o, 1, n, 8, "scratch_a");
    GETBUF(B_SB, scratch_b_o, 1, n, 8, "scratch_b");
    k.sa = (double *)bufs[B_SA].buf;
    k.sb = (double *)bufs[B_SB].buf;
    k.scratch_a_obj = scratch_a_o;
    k.scratch_b_obj = scratch_b_o;
    k.log10_obj = log10_o;
    k.power_obj = power_o;

    GETBUF(B_FIRST_RX, first_rx_o, 1, n, 8, "first_rx");
    GETBUF(B_STRONGEST, strongest_o, 1, n, 8, "strongest");
    GETBUF(B_STATE, state_o, 1, n, 1, "state_code");
    GETBUF(B_HEARD, heard_o, 1, n * n, 1, "heard_from");
    GETBUF(B_FRAME, frame_o, 1, 4 * n, 8, "frame_out");
    GETBUF(B_TIMER, timer_o, 1, n, 8, "timer_deadline");
    GETBUF(B_DECISIONS, decisions_o, 1, 4 * (2 * n + 1), 8, "decisions");
    GETBUF(B_COUNTS, counts_o, 1, CN_COUNT, 8, "counts");
    k.first_rx = (double *)bufs[B_FIRST_RX].buf;
    k.strongest = (double *)bufs[B_STRONGEST].buf;
    k.state = (signed char *)bufs[B_STATE].buf;
    k.heard = (unsigned char *)bufs[B_HEARD].buf;
    double *frame_out = (double *)bufs[B_FRAME].buf;
    k.fr_sender = frame_out;
    k.fr_power = frame_out + n;
    k.fr_start = frame_out + 2 * n;
    k.fr_flag = frame_out + 3 * n;
    k.timer_deadline = (double *)bufs[B_TIMER].buf;
    k.decisions = (double *)bufs[B_DECISIONS].buf;
    k.dec_cap = 2 * n + 1;
    long long *counts = (long long *)bufs[B_COUNTS].buf;

    k.ten_obj = PyFloat_FromDouble(10.0);
    if (k.ten_obj == NULL)
        goto done;

    /* plain-C scratch */
    k.heap_cap = W + 4 * n + 16;
    k.heap = (KEvent *)PyMem_Malloc(k.heap_cap * sizeof(KEvent));
    k.fr_end = (double *)PyMem_Malloc(n * sizeof(double));
    k.active = (long *)PyMem_Malloc(n * sizeof(long));
    k.recent = (long *)PyMem_Malloc(n * sizeof(long));
    k.overlap = (long *)PyMem_Malloc(n * sizeof(long));
    k.pos = (double *)PyMem_Malloc(2 * n * sizeof(double));
    k.rx = (double *)PyMem_Malloc(n * sizeof(double));
    k.elig = (unsigned char *)PyMem_Malloc(n);
    k.det = (long *)PyMem_Malloc(n * sizeof(long));
    k.interf = (double *)PyMem_Malloc(n * sizeof(double));
    if (k.heap == NULL || k.fr_end == NULL || k.active == NULL ||
        k.recent == NULL || k.overlap == NULL || k.pos == NULL ||
        k.rx == NULL || k.elig == NULL || k.det == NULL ||
        k.interf == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* --- event-loop setup, mirroring BroadcastSimulator.run() ------- */
    /* window beacon rounds posted first: seq 0 .. W-1 */
    for (long w = 0; w < W; w++)
        if (k_push(&k, win_times[w], EV_BEACON, w, 0.0) < 0)
            goto done;
    /* start_broadcast(source, warmup) */
    k.state[k.source] = ST_FORWARDED;
    k.first_rx[k.source] = k.warmup;
    if (k.record && k_decision(&k, k.warmup, k.source, DK_SOURCE, 0.0) < 0)
        goto done;
    if (k.warmup <= 0.0) {
        if (k_do_transmit(&k, k.source, k.default_tx, 0.0) < 0)
            goto done;
    } else {
        if (k_push(&k, k.warmup, EV_TRANSMIT, k.source, k.default_tx) < 0)
            goto done;
    }

    /* --- run_until(horizon) ---------------------------------------- */
    while (k.heap_len > 0 && k.heap[0].t <= k.horizon) {
        KEvent e = k_pop(&k);
        int rc = 0;
        switch (e.kind) {
        case EV_BEACON:
            k.rx_cur = k.win_rx[e.a];
            k.seen_cur = k.win_seen[e.a];
            break;
        case EV_TRANSMIT:
            rc = k_do_transmit(&k, e.a, e.b, e.t);
            break;
        case EV_RESOLVE:
            rc = k_resolve(&k, e.a, e.t);
            break;
        case EV_TIMER:
            rc = k_on_timer(&k, e.a, e.t);
            break;
        }
        if (rc < 0)
            goto done;
        k.fired++;
    }

    /* --- outputs ---------------------------------------------------- */
    for (long f = 0; f < k.n_frames; f++)
        k.fr_flag[f] = 0.0;
    for (long i = 0; i < k.n_active; i++)
        k.fr_flag[k.active[i]] = 1.0;
    for (long i = 0; i < k.n_recent; i++)
        k.fr_flag[k.recent[i]] = 2.0;
    counts[CN_FIRED] = k.fired;
    counts[CN_FRAMES] = k.n_frames;
    counts[CN_RESOLVED] = k.n_resolved;
    counts[CN_DRAWS] = k.draw - (long)ip[IP_RNG_OFFSET];
    counts[CN_DECISIONS] = k.n_decisions;
    result = PyFloat_FromDouble(k.energy);

done:
    PyMem_Free(k.heap);
    PyMem_Free(k.fr_end);
    PyMem_Free(k.active);
    PyMem_Free(k.recent);
    PyMem_Free(k.overlap);
    PyMem_Free(k.pos);
    PyMem_Free(k.rx);
    PyMem_Free(k.elig);
    PyMem_Free(k.det);
    PyMem_Free(k.interf);
    PyMem_Free(k.win_rx);
    PyMem_Free(k.win_seen);
    Py_XDECREF(k.ten_obj);
    for (long i = 0; i < n_wbufs; i++)
        PyBuffer_Release(&wbufs[i]);
    PyMem_Free(wbufs);
    for (int i = 0; i < B_FIXED; i++)
        if (held[i])
            PyBuffer_Release(&bufs[i]);
    return result;
#undef GETBUF
}

/* ------------------------------------------------------------------ */
/* probe_ops: arithmetic self-check hooks for the fallback ladder      */
/* ------------------------------------------------------------------ */

static PyObject *
evcore_probe_ops(PyObject *self, PyObject *args)
{
    int op;
    PyObject *a_o, *b_o, *out_o;
    if (!PyArg_ParseTuple(args, "iOOO:probe_ops", &op, &a_o, &b_o, &out_o))
        return NULL;
    Py_buffer a, b, out;
    if (get_buf(a_o, &a, 0, 0, 8, "a") < 0)
        return NULL;
    if (get_buf(b_o, &b, 0, 0, 8, "b") < 0) {
        PyBuffer_Release(&a);
        return NULL;
    }
    if (get_buf(out_o, &out, 1, 0, 8, "out") < 0) {
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        return NULL;
    }
    Py_ssize_t m = out.len / 8;
    if (a.len / 8 < m || b.len / 8 < m) {
        PyErr_SetString(PyExc_ValueError, "probe_ops: inputs shorter than out");
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        PyBuffer_Release(&out);
        return NULL;
    }
    const double *pa = (const double *)a.buf;
    const double *pb = (const double *)b.buf;
    double *po = (double *)out.buf;
    switch (op) {
    case 0:   /* sqrt */
        for (Py_ssize_t i = 0; i < m; i++)
            po[i] = sqrt(pa[i]);
        break;
    case 1:   /* FMA-contraction canary: a*a + b*b as separate IEEE ops */
        for (Py_ssize_t i = 0; i < m; i++) {
            double xx = pa[i] * pa[i];
            double yy = pb[i] * pb[i];
            po[i] = xx + yy;
        }
        break;
    case 2:   /* floored modulo, the np.mod replica of the fold */
        for (Py_ssize_t i = 0; i < m; i++) {
            double r = fmod(pa[i], pb[i]);
            if (r != 0.0 && ((pb[i] < 0.0) != (r < 0.0)))
                r = r + pb[i];
            po[i] = r;
        }
        break;
    default:
        PyErr_SetString(PyExc_ValueError, "probe_ops: unknown op");
        PyBuffer_Release(&a);
        PyBuffer_Release(&b);
        PyBuffer_Release(&out);
        return NULL;
    }
    PyBuffer_Release(&a);
    PyBuffer_Release(&b);
    PyBuffer_Release(&out);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static PyMethodDef evcore_methods[] = {
    {"run_window", evcore_run_window, METH_VARARGS,
     "Run one broadcast window in the compiled event core (see "
     "repro.manet.compiled for the marshalling layer)."},
    {"probe_ops", evcore_probe_ops, METH_VARARGS,
     "probe_ops(op, a, b, out): evaluate sqrt / a*a+b*b / floored mod "
     "natively so the Python layer can verify arithmetic identity."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef evcore_module = {
    PyModuleDef_HEAD_INIT,
    "repro.manet._evcore",
    "Compiled event core: the run_window broadcast kernel and its "
    "probe_ops arithmetic self-check (DESIGN.md §14).",
    -1,
    evcore_methods,
};

PyMODINIT_FUNC
PyInit__evcore(void)
{
    return PyModule_Create(&evcore_module);
}
