/* Compiled event loop of contend.simulator: the same timing model as the
 * pure-Python _run in tests/oracle.py, the reference it is tested against.
 *
 * Thread i issues n_events[i] accesses, cycling through its line feed
 * feed[i][0 .. feed_len[i]) from feed[i][start[i]] on; entry e names line
 * base_line[i] + (e >> 1), written when e & 1.  Threads may share a feed,
 * each from its own start.  The cache index is line & set_mask: with the
 * bank and set fields directly above the line offset, that is a bijection
 * with the (bank, set) pairs.  Each set keeps its ways most recent first, as
 * line << 1 | dirty, so lines must stay below 2^63.
 *
 * Threads run in (ready time, id) order, so ids numbered in (workload,
 * thread) order break ties as _run does.  That order needs no heap, only
 * two FIFO queues, each already sorted: after a hit a thread is ready at
 * now + hit_latency, and now never decreases; after a miss it is ready at
 * dq + mem_latency, and the one FIFO controller's dequeue time dq grows by
 * at least interval per miss.  Several misses in flight per thread, or bus
 * stages in front of the controller (ROADMAP item 5), break this.
 *
 * Closed form.  It rests on one invariant: a hit changes no cache contents
 * and no controller state (it only reorders its set and may set a dirty
 * bit).  Only a miss evicts, and every miss moves serviced.  So when a
 * thread's feed wraps on a hit while serviced still has its value from the
 * thread's previous hit wrap, the thread has just run one whole cycle of its
 * feed (feed_len events), all hits, and nothing has missed since: every line
 * of its feed is cached, and stays so until something misses.  The thread is
 * then warm for that serviced.  Once every unfinished thread is warm for the
 * current serviced, no access can miss again: each thread's remaining r
 * accesses all hit, it finishes at its ready time + r * hit_latency, and the
 * loop ends.  n_warm changes only on a hit wrap and on a finish, and is reset
 * lazily when serviced has moved.  A model change that lets a hit use the
 * controller or change what is cached (ROADMAP items 5, 11 and 12: miss
 * slots and bus stages, way partitions and rate caps, DRAM) must keep the
 * invariant or turn the closed form off; item 13's replacement bits, which
 * a hit sets, belong to the set like its order.
 *
 * Repeats.  The model is deterministic and invariant under a shift of time:
 * what runs next depends on the sets, the feed indices, the queues, and the
 * ready times and the controller relative to one another, never on the clock
 * itself or on a counter.  So when that state at a wrap of an anchor
 * thread's feed (index back to 0) equals the state at an earlier one, with
 * every time later by delta, the events between the two repeat every delta
 * cycles until some thread finishes.  The compared state is, for each
 * unfinished thread in queue order (the hit queue first), its id, feed index
 * and ready time; max(mc_free, the earliest ready time); times taken from
 * the anchor's ready time; and every set that an unfinished thread's feed
 * maps to (contents, order, dirty bits, fill), the only sets a whole number
 * of feed cycles can touch.  Brent's cycle finding (Brent, BIT 1980) runs
 * over the anchor's wraps, the thread with the longest feed, and starts over
 * whenever a thread finishes.  It compares the queues and a hash of the
 * sets; a match is confirmed over one more period against a copy of the
 * sets, so no cache-sized copy is made before one.  The loop then skips k
 * periods, the most that bring no thread to its last event: counters, done,
 * ready times, serviced, mc_free and last_dequeue move by k times their
 * change per period, each thread's labels of the period repeat k times, and
 * the closed form's bookkeeping starts over.  A period without a miss is
 * left to the closed form, which ends the run within one more.  Model state
 * that the items above add (outstanding fills, per-bus FIFOs, rate caps,
 * open DRAM rows) must join the compared state and move with a skip, or the
 * skip must be turned off.  A repeat takes a whole cycle of every feed and
 * a skip at least one more, so until every unfinished thread can run its
 * feed twice over (n_events >= 2 * feed_len), nothing can be skipped, and a
 * copy of the loop without the check runs.
 *
 * Streaks.  A hit on the most recent way of its set (set[0] >> 1 == line,
 * the set not empty; LRU stack distance 1, Mattson et al., IBM Systems
 * Journal 1970) changes only that way's dirty bit and its thread's ready
 * time, feed index and done count: the set keeps its order, and the
 * controller and every other thread are left alone.  A thread alone in the
 * hit queue after a hit has one rival, the miss queue's head m, which stays
 * put while no one else runs.  So while the thread stays first, ready at t
 * with t < th[m].t, or t == th[m].t and id < m (no bound when the miss
 * queue is empty), its next entries that are such hits run back to back in
 * one inner loop, with no queue pick, push or set shift; the counters and
 * the labels (all 1s) are added once at the end.  A streak stops short of
 * the thread's last event and of its feed's last entry, so that finishes
 * and wraps, which the closed form and the repeat check count, take the
 * full path.  Streaks rest on recency order: item 13's not-recently-used
 * bits, which a hit sets, must re-derive the test for a hit that changes
 * nothing else, or turn streaks off.  Item 5's miss slots (a thread that
 * misses stays ready in the hit queue, and fills return to others) and item
 * 1's marks (a window that starts at a thread's W-th event) must bound a
 * streak as the last event does.  The streak check costs runs that seldom
 * streak 10% to 57% per event (the most: the Xeon configs' solo triad,
 * whose arrays map each index to one set, so that each of its hits is alone
 * and none at distance 1).  So it lives in a copy of the loop of its own,
 * run_streaks, in which every run that cannot run its feeds twice starts; a
 * run whose window of 1024 full events brings fewer streak events than that
 * leaves it for good, for run_plain, the loop as it was.  The bucket sorts
 * stay (at least 1.6 streak events per full event in every window), while
 * the t1 and Xeon runs, at most 0.71, leave after their first window; a
 * streak event costs about two fifths of a full one.
 *
 * Counters are per workload (wl[i] is thread i's); totals receives the
 * whole run's elapsed cycles, serviced controller lines, events skipped in
 * repeats and events run in streaks.  labels is NULL or receives one hit flag per event, thread
 * after thread.  Returns the number of events run in closed form, or -1 when
 * memory runs out.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

struct thread {
    int64_t t, done, pos, label_at;  /* ready time, events done, feed index, first label */
    int64_t wrap_sv, warm_sv;  /* serviced at the last hit wrap, and when counted warm */
};

/* The state at an anchor wrap, as the repeat check keeps it. */
struct snap {
    int64_t n_hits, n_queued;  /* threads in the hit queue, and in both */
    int64_t ref, mc, serviced;  /* the anchor's ready time; the controller, from ref */
    uint64_t hash;  /* of the sets */
    int64_t *queued;  /* per queued thread, in queue order: id, pos, t - ref, done */
    int64_t *count;  /* the four counters of each workload */
    int64_t *sets;  /* NULL, or a copy of each set: fill, then assoc ways */
};

struct run {
    /* simcore_run's arguments */
    int n_threads, n_wl;
    const uint32_t *const *feed;
    const int64_t *feed_len, *n_events;
    const uint64_t *base_line;
    const int32_t *wl;
    uint64_t set_mask;
    int64_t assoc, hit_latency, mem_latency, interval;
    int wb_slot;
    int64_t *count[4], *finish;  /* accesses, hits, fetched, written back */
    uint8_t *labels;
    /* the loop */
    uint64_t *ways;
    int64_t *fill;
    struct thread *th;
    int *hq, *mq;  /* the hit and miss queues: rings of thread ids, heads and tails count up */
    uint32_t ring, hh, ht, mh, mt;
    int live, acyclic;  /* unfinished threads, and those that cannot run their feed twice */
    int n_warm;  /* n_warm unfinished threads are warm for serviced == warm_for */
    int64_t warm_for, mc_free, last_dequeue, serviced, skipped;
    /* the repeat check */
    int *order, n_order, next, anchor;  /* unfinished threads, longest feed first; the first is the anchor */
    int64_t n_sets, *sets;  /* the sets that their feeds map to */
    int64_t lam, power, confirm;  /* wraps since saved (-1: none), Brent's power, a period to confirm */
    int64_t wrap_serviced;  /* serviced at the anchor's last wrap */
    struct snap saved;
    /* streaks */
    int64_t streaked, probe, window_streaked;  /* events run in streaks; full events left in
                                                  the window, and streaked when it began */
};

enum { ENDED, CYCLIC, WRAPPED, FINISHED, PLAIN };  /* why run_events returned */

/* run_streaks goes on while each window of WINDOW full events brings at
 * least as many streak events (see Streaks above). */
enum { WINDOW = 1024 };

/* Thread id, just queued after a hit and alone in the hit queue, runs the
 * streak of MRU hits that follows, if any: up to, not including, its last
 * event and its feed's last entry, while it stays first in (ready time, id)
 * order against the miss queue's head (mq, mh, mt are the loop's). */
static inline __attribute__((always_inline)) void streak(struct run *r, int id, const int *mq,
                                                          uint32_t mh, uint32_t mt)
{
    struct thread *p = r->th + id;
    int rival = mq[mh & (r->ring - 1)];
    int64_t until = mh == mt ? INT64_MAX : r->th[rival].t + (id < rival);
    int64_t t = p->t, pos = p->pos, len = r->n_events[id] - 1 - p->done, k = 0;
    if (len > r->feed_len[id] - 1 - pos) len = r->feed_len[id] - 1 - pos;
    const uint32_t *next = r->feed[id] + pos;
    const uint64_t base = r->base_line[id], set_mask = r->set_mask;
    for (; k < len && t < until; k++, t += r->hit_latency) {
        uint32_t e = next[k];
        uint64_t line = base + (e >> 1), *set = r->ways + (line & set_mask) * (uint64_t)r->assoc;
        /* an empty set's set[0] is 0, which names line 0 */
        if (set[0] >> 1 != line || (line == 0 && r->fill[0] == 0)) break;
        set[0] |= e & 1;
    }
    if (k) {
        int w = r->wl[id];
        if (r->labels) memset(r->labels + p->label_at + p->done, 1, k);
        p->t = t, p->pos = pos + k, p->done += k;
        r->count[0][w] += k, r->count[1][w] += k;
        r->streaked += k;
    }
}

/* Runs events until the run ends.  Without detect, it returns CYCLIC once
 * every unfinished thread can run its feed twice; with detect, WRAPPED after
 * the anchor wraps and FINISHED after a thread finishes; with streaks,
 * PLAIN after a window with fewer streak events than full ones.  The loop's
 * state lives in locals while it runs, as it did when the loop was all of
 * simcore_run, and goes back to r when it returns. */
static inline __attribute__((always_inline)) int run_events(struct run *r, const int detect,
                                                            const int streaks)
{
    const uint32_t *const *feed = r->feed;
    const int64_t *feed_len = r->feed_len, *n_events = r->n_events;
    const uint64_t *base_line = r->base_line, set_mask = r->set_mask;
    const int32_t *wl = r->wl;
    const int64_t assoc = r->assoc, hit_latency = r->hit_latency,
                  mem_latency = r->mem_latency, interval = r->interval;
    const int wb_slot = r->wb_slot, anchor = r->anchor;
    int64_t *accesses = r->count[0], *hits = r->count[1], *fetched = r->count[2],
            *written_back = r->count[3], *finish = r->finish;
    uint8_t *labels = r->labels;
    uint64_t *ways = r->ways;
    int64_t *fill = r->fill;
    struct thread *th = r->th;
    int *hq = r->hq, *mq = r->mq;
    uint32_t ring = r->ring, hh = r->hh, ht = r->ht, mh = r->mh, mt = r->mt;
    int live = r->live, acyclic = r->acyclic, n_warm = r->n_warm, why = ENDED;
    int64_t warm_for = r->warm_for, mc_free = r->mc_free, last_dequeue = r->last_dequeue,
            serviced = r->serviced;
    int64_t probe = streaks ? r->probe : 0;
    while (hh != ht || mh != mt) {
        int h = hq[hh & (ring - 1)], m = mq[mh & (ring - 1)];
        int from_hits = mh == mt || (hh != ht && (th[h].t < th[m].t
                                                  || (th[h].t == th[m].t && h < m)));
        int id = from_hits ? h : m, w = wl[id];
        if (from_hits) hh++; else mh++;
        struct thread *p = th + id;
        int64_t now = p->t;

        uint32_t e = feed[id][p->pos];
        int wrapped = ++p->pos == feed_len[id];
        if (wrapped) p->pos = 0;
        uint64_t line = base_line[id] + (e >> 1);
        uint64_t *set = ways + (line & set_mask) * (uint64_t)assoc;
        int64_t *set_fill = fill + (line & set_mask), n = *set_fill, way = 1;
        uint64_t entry = line << 1 | (e & 1), down = set[0];
        int hit = n > 0 && down >> 1 == line, wrote_back = 0;
        if (hit) {
            set[0] = down | entry;
        } else {  /* from the most recent way on, each moves down one until the line */
            for (; way < n; way++) {
                uint64_t cur = set[way];
                set[way] = down;
                down = cur;
                if (cur >> 1 == line) break;
            }
            hit = way < n;
            if (hit) {
                entry |= down;
            } else if (n < assoc) {
                set[n] = down;
                (*set_fill)++;
            } else {  /* the least recently used way falls off */
                wrote_back = down & 1;
            }
            set[0] = entry;
        }

        if (labels) labels[p->label_at + p->done] = (uint8_t)hit;
        accesses[w]++;
        if (hit) {
            hits[w]++;
            p->t = now + hit_latency;
        } else {
            int64_t dq = mc_free > now ? mc_free : now;
            mc_free = dq + interval;
            last_dequeue = dq;
            serviced++;
            fetched[w]++;
            p->t = dq + mem_latency;
            if (wrote_back) {
                written_back[w]++;
                if (wb_slot) {
                    last_dequeue = mc_free;
                    mc_free += interval;
                    serviced++;
                }
            }
        }
        if (++p->done == n_events[id]) {  /* done: not queued again */
            if (p->t > finish[w]) finish[w] = p->t;
            live--;
            if (p->warm_sv == serviced) n_warm--;
            if (n_warm == live && warm_for == serviced) break;
            if (detect) {
                why = FINISHED;
                break;
            }
            /* read through r: a pointer kept for this rare branch costs the loop a register */
            if (2 * r->feed_len[id] > r->n_events[id] && --acyclic == 0 && live) {
                why = CYCLIC;
                break;
            }
        } else if (!hit) {
            mq[mt++ & (ring - 1)] = id;
        } else {
            hq[ht++ & (ring - 1)] = id;
            if (wrapped) {
                if (p->wrap_sv == serviced && p->warm_sv != serviced) {  /* newly warm */
                    if (warm_for != serviced) warm_for = serviced, n_warm = 0;
                    p->warm_sv = serviced;
                    if (++n_warm == live) break;
                }
                p->wrap_sv = serviced;
            }
            if (streaks && ht - hh == 1) streak(r, id, mq, mh, mt);
        }
        if (detect && wrapped && id == anchor) {
            why = WRAPPED;
            break;
        }
        if (streaks && --probe < 0) {  /* the window has ended */
            if (r->streaked - r->window_streaked < WINDOW) {
                why = PLAIN;
                break;
            }
            probe = WINDOW - 1;
            r->window_streaked = r->streaked;
        }
    }
    r->hh = hh, r->ht = ht, r->mh = mh, r->mt = mt;
    r->live = live, r->acyclic = acyclic, r->n_warm = n_warm;
    r->warm_for = warm_for, r->mc_free = mc_free, r->last_dequeue = last_dequeue;
    r->serviced = serviced;
    if (streaks) r->probe = probe;
    return why;
}

/* Each copy of the loop is a function of its own, so that the registers of
 * one are not allotted for the others. */
static __attribute__((noinline)) int run_plain(struct run *r) { return run_events(r, 0, 0); }
static __attribute__((noinline)) int run_streaks(struct run *r) { return run_events(r, 0, 1); }
static __attribute__((noinline)) int run_detect(struct run *r) { return run_events(r, 1, 0); }

/* The j-th queued thread, the hit queue first. */
static int queued(const struct run *r, int64_t j)
{
    int64_t n_hits = r->ht - r->hh;
    return j < n_hits ? r->hq[(r->hh + j) & (r->ring - 1)]
                      : r->mq[(r->mh + j - n_hits) & (r->ring - 1)];
}

/* max(mc_free, the earliest ready time): the heads of the two sorted queues
 * hold the earliest. */
static int64_t controller(const struct run *r)
{
    int64_t mc = r->mc_free;
    if (r->hh != r->ht && r->th[r->hq[r->hh & (r->ring - 1)]].t > mc)
        mc = r->th[r->hq[r->hh & (r->ring - 1)]].t;
    if (r->mh != r->mt && r->th[r->mq[r->mh & (r->ring - 1)]].t > mc)
        mc = r->th[r->mq[r->mh & (r->ring - 1)]].t;
    return mc;
}

/* splitmix64's output function (Steele, Lea and Flood, OOPSLA 2014) */
static uint64_t mix(uint64_t x)
{
    x = (x ^ x >> 30) * 0xbf58476d1ce4e5b9u;
    x = (x ^ x >> 27) * 0x94d049bb133111ebu;
    return x ^ x >> 31;
}

/* A hash of every way of the sets, and of its place: ways past a set's fill
 * stay 0.  The words are mixed apart and summed, so that they hash side by
 * side. */
static uint64_t set_hash(const struct run *r)
{
    uint64_t h = 0, at = 0;
    for (int64_t i = 0; i < r->n_sets; i++) {
        const uint64_t *set = r->ways + r->sets[i] * r->assoc;
        for (int64_t way = 0; way < r->assoc; way++, at += 0x9e3779b97f4a7c15u) h += mix(set[way] + at);
    }
    return h;
}

/* Keeps the state in saved: with a copy of the sets when copy, else their
 * hash.  Returns 0 when memory runs out. */
static int save(struct run *r, int copy)
{
    struct snap *s = &r->saved;
    s->n_hits = r->ht - r->hh;
    s->n_queued = s->n_hits + (r->mt - r->mh);
    s->ref = r->th[r->anchor].t;
    s->mc = controller(r) - s->ref;
    s->serviced = r->serviced;
    for (int64_t j = 0; j < s->n_queued; j++) {
        int id = queued(r, j);
        int64_t *q = s->queued + 4 * j;
        q[0] = id, q[1] = r->th[id].pos, q[2] = r->th[id].t - s->ref, q[3] = r->th[id].done;
    }
    for (int c = 0; c < 4; c++) memcpy(s->count + c * r->n_wl, r->count[c], r->n_wl * sizeof *s->count);
    if (copy) {
        int64_t stride = r->assoc + 1;
        if (!s->sets && !(s->sets = malloc(r->n_sets * stride * sizeof *s->sets))) return 0;
        for (int64_t i = 0; i < r->n_sets; i++) {
            s->sets[i * stride] = r->fill[r->sets[i]];
            memcpy(s->sets + i * stride + 1, r->ways + r->sets[i] * r->assoc, r->assoc * sizeof *r->ways);
        }
    } else {
        s->hash = set_hash(r);
    }
    r->lam = 0;
    return 1;
}

/* Whether the queues, feed indices and relative times equal saved's. */
static int same_queues(const struct run *r)
{
    const struct snap *s = &r->saved;
    int64_t ref = r->th[r->anchor].t;
    if (r->ht - r->hh != s->n_hits
        || s->n_hits + (r->mt - r->mh) != s->n_queued || controller(r) - ref != s->mc)
        return 0;
    for (int64_t j = 0; j < s->n_queued; j++) {
        int id = queued(r, j);
        const int64_t *q = s->queued + 4 * j;
        if (q[0] != id || q[1] != r->th[id].pos || q[2] != r->th[id].t - ref) return 0;
    }
    return 1;
}

static int same_sets(const struct run *r)
{
    const int64_t stride = r->assoc + 1, *copy = r->saved.sets;
    for (int64_t i = 0; i < r->n_sets; i++, copy += stride) {
        int64_t n = r->fill[r->sets[i]];
        if (copy[0] != n || memcmp(copy + 1, r->ways + r->sets[i] * r->assoc, n * sizeof *r->ways))
            return 0;
    }
    return 1;
}

/* The state equals saved's, shifted by delta: skips k more periods. */
static void skip(struct run *r)
{
    const struct snap *s = &r->saved;
    int64_t delta = r->th[r->anchor].t - s->ref, k = INT64_MAX;
    /* per > 0: the anchor's time moved by delta > 0, and so did every thread's */
    for (int64_t j = 0; j < s->n_queued; j++) {
        const int64_t *q = s->queued + 4 * j;
        const struct thread *p = r->th + q[0];
        int64_t per = p->done - q[3], left = (r->n_events[q[0]] - p->done - 1) / per;
        if (left < k) k = left;
    }
    if (k == 0) return;
    for (int64_t j = 0; j < s->n_queued; j++) {
        const int64_t *q = s->queued + 4 * j;
        struct thread *p = r->th + q[0];
        int64_t per = p->done - q[3];
        if (r->labels)
            for (int64_t i = 0; i < k; i++)
                memcpy(r->labels + p->label_at + p->done + i * per, r->labels + p->label_at + q[3], per);
        p->t += k * delta;
        p->done += k * per;
        r->skipped += k * per;
    }
    for (int c = 0; c < 4; c++)
        for (int w = 0; w < r->n_wl; w++)
            r->count[c][w] += k * (r->count[c][w] - s->count[c * r->n_wl + w]);
    r->serviced += k * (r->serviced - s->serviced);
    r->mc_free += k * delta;
    r->last_dequeue += k * delta;  /* the period missed, so it dequeued */
    for (int i = 0; i < r->n_threads; i++) r->th[i].wrap_sv = r->th[i].warm_sv = -1;
    r->n_warm = 0;
    r->warm_for = -1;
}

/* One step of Brent's cycle finding at a wrap of the anchor: saved is the
 * state lam steps ago, kept at 1, 2, 4, ... steps after the last restart.
 * A wrap is a step only when something has missed since the anchor's last
 * wrap; the state at one step still decides the next, and a period without
 * a miss is the closed form's.  Returns 0 when memory runs out. */
static int anchor_wrapped(struct run *r)
{
    if (r->serviced == r->wrap_serviced) return 1;
    r->wrap_serviced = r->serviced;
    if (r->lam >= 0) r->lam++;
    if (r->lam < 0) {  /* nothing saved since the last restart */
        r->power = 1;
    } else if (r->confirm) {
        if (r->lam < r->confirm) return 1;
        if (same_queues(r) && same_sets(r)) skip(r);
        r->confirm = 0;
        r->power = 1;
    } else if (same_queues(r) && set_hash(r) == r->saved.hash) {
        r->confirm = r->lam;  /* a period of lam wraps, unless the hash collided */
        return save(r, 1);
    } else if (r->lam < r->power) {
        return 1;
    } else {
        r->power *= 2;
    }
    return save(r, 0);
}

/* The unfinished threads changed: forget saved and take a new anchor. */
static void restart(struct run *r)
{
    while (r->next < r->n_order && r->th[r->order[r->next]].done == r->n_events[r->order[r->next]])
        r->next++;
    r->anchor = r->next < r->n_order ? r->order[r->next] : -1;
    r->lam = -1;
    r->confirm = 0;
    r->wrap_serviced = -1;
}

struct feed_key {
    int64_t len;
    int id;
};

/* longest feed first, then by id: no choice rests on where a feed lies in memory */
static int longer_feed_first(const void *a, const void *b)
{
    const struct feed_key *x = a, *y = b;
    if (x->len != y->len) return x->len > y->len ? -1 : 1;
    return x->id - y->id;
}

/* Sets up the repeat check over the unfinished threads, of which there is
 * at least one.  Returns 0 when memory runs out. */
static int start_repeats(struct run *r)
{
    uint8_t *mark = calloc(r->set_mask + 1, 1);
    struct feed_key *key = malloc(r->n_threads * sizeof *key);
    r->order = malloc(r->n_threads * sizeof *r->order);
    r->saved.queued = malloc(4 * r->n_threads * sizeof *r->saved.queued);
    r->saved.count = malloc(4 * r->n_wl * sizeof *r->saved.count);
    int ok = mark && key && r->order && r->saved.queued && r->saved.count;
    for (int i = 0; ok && i < r->n_threads; i++)
        if (r->th[i].done < r->n_events[i])
            key[r->n_order++] = (struct feed_key){r->feed_len[i], i};
    if (ok) qsort(key, r->n_order, sizeof *key, longer_feed_first);
    /* past as many feed entries as there are sets, every set is taken: a
     * superset does no harm, as sets that no feed maps to never change */
    int64_t entries = 0;
    for (int j = 0; ok && j < r->n_order; j++) {
        int i = r->order[j] = key[j].id;
        for (int64_t f = 0; f < r->feed_len[i] && entries <= (int64_t)r->set_mask; f++, entries++) {
            uint64_t set = (r->base_line[i] + (r->feed[i][f] >> 1)) & r->set_mask;
            r->n_sets += !mark[set];
            mark[set] = 1;
        }
    }
    if (entries > (int64_t)r->set_mask) memset(mark, 1, r->set_mask + 1), r->n_sets = r->set_mask + 1;
    ok = ok && (r->sets = malloc(r->n_sets * sizeof *r->sets));
    for (uint64_t set = 0, i = 0; ok && set <= r->set_mask; set++)
        if (mark[set]) r->sets[i++] = (int64_t)set;
    free(mark);
    free(key);
    restart(r);
    return ok;
}

int64_t simcore_run(int n_threads, const uint32_t *const *feed, const int64_t *feed_len,
                    const int64_t *start, const int64_t *n_events, const uint64_t *base_line,
                    const int32_t *wl, uint64_t set_mask, int64_t assoc, int64_t hit_latency,
                    int64_t mem_latency, int64_t interval, int wb_slot,
                    int64_t *accesses, int64_t *hits, int64_t *fetched,
                    int64_t *written_back, int64_t *finish, int64_t *totals,
                    uint8_t *labels)
{
    struct run r = {
        .n_threads = n_threads, .feed = feed, .feed_len = feed_len, .n_events = n_events,
        .base_line = base_line, .wl = wl, .set_mask = set_mask, .assoc = assoc,
        .hit_latency = hit_latency, .mem_latency = mem_latency, .interval = interval,
        .wb_slot = wb_slot, .count = {accesses, hits, fetched, written_back},
        .finish = finish, .labels = labels, .ring = 1, .warm_for = -1, .anchor = -1,
        .probe = WINDOW - 1,
    };
    /* zeroed, as set[0] is read even while its set is empty; that also brings
     * the sets into the CPU caches before the loop */
    r.ways = calloc((set_mask + 1) * (uint64_t)assoc, sizeof *r.ways);
    r.fill = calloc(set_mask + 1, sizeof *r.fill);
    r.th = calloc(n_threads + 1, sizeof *r.th);
    while (r.ring < (uint32_t)n_threads) r.ring <<= 1;
    r.hq = calloc(r.ring, sizeof *r.hq), r.mq = calloc(r.ring, sizeof *r.mq);
    int ok = r.ways && r.fill && r.th && r.hq && r.mq;

    for (int i = 0; ok && i < n_threads; i++) {
        r.th[i].pos = start[i];
        r.th[i].wrap_sv = r.th[i].warm_sv = -1;
        if (i > 0) r.th[i].label_at = r.th[i - 1].label_at + n_events[i - 1];
        if (wl[i] >= r.n_wl) r.n_wl = wl[i] + 1;
        if (n_events[i] > 0) {  /* all ready at 0, in id order */
            r.hq[r.ht++] = i, r.live++;
            r.acyclic += 2 * feed_len[i] > n_events[i];
        }
    }
    int why = !ok || !r.live ? ENDED : r.acyclic ? run_streaks(&r) : CYCLIC;
    if (why == PLAIN) why = run_plain(&r);
    if (why == CYCLIC) ok = start_repeats(&r);
    while (ok && why != ENDED) {
        why = run_detect(&r);
        if (why == WRAPPED) ok = anchor_wrapped(&r);
        else if (why == FINISHED) restart(&r);
    }
    int64_t closed = 0;
    if (ok) {
        int64_t elapsed = r.last_dequeue;
        for (int i = 0; i < n_threads; i++) {
            int w = wl[i];
            int64_t left = n_events[i] - r.th[i].done, t = r.th[i].t + left * hit_latency;
            if (left > 0) {  /* the loop broke with every unfinished thread warm: the rest hit */
                accesses[w] += left;
                hits[w] += left;
                if (labels) memset(labels + r.th[i].label_at + r.th[i].done, 1, left);
                if (t > finish[w]) finish[w] = t;
                closed += left;
            }
            if (finish[w] > elapsed) elapsed = finish[w];
        }
        totals[0] = elapsed;
        totals[1] = r.serviced;
        totals[2] = r.skipped;
        totals[3] = r.streaked;
    }
    free(r.ways);
    free(r.fill);
    free(r.th);
    free(r.hq);
    free(r.mq);
    free(r.order);
    free(r.sets);
    free(r.saved.queued);
    free(r.saved.count);
    free(r.saved.sets);
    return ok ? closed : -1;
}

/* The bucket sort of contend.patterns.BucketSort: the bucket index of each
 * of its first count keys, and the stable output position of its first
 * n_pos keys.
 *
 * The keys are those of CPython's random.Random(seed).randbytes(4 * count)
 * read as little-endian uint32: MT19937 (Matsumoto and Nishimura, 1998)
 * seeded by init_by_array over key[0 .. key_len), the 32-bit words of
 * abs(seed) least significant first ([0] for seed 0), then one output per
 * sort key.  Sort key i, of value v, goes to bucket[i] = (v * n_buckets) >>
 * 32.  For i < n_pos, pos[i * pos_stride] receives the number of sort keys
 * before key i in a sort by bucket that keeps equal buckets in key order: a
 * counting sort over n_buckets counters, which needs every key, so with
 * n_pos > 0 count must be the sort's n_keys.  The stride lets pos be every
 * other word of a line feed, and bucket another part of it.  Keeps no state
 * between calls.  Returns 0, or -1 when memory runs out.
 */
enum { MT_N = 624, MT_M = 397 };

static uint32_t mt_mix(uint32_t y) { return (y >> 1) ^ (-(y & 1) & 0x9908b0dfU); }

static void mt_twist(uint32_t *mt)
{
    int k;
    for (k = 0; k < MT_N - MT_M; k++)
        mt[k] = mt[k + MT_M] ^ mt_mix((mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU));
    for (; k < MT_N - 1; k++)
        mt[k] = mt[k + MT_M - MT_N] ^ mt_mix((mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU));
    mt[k] = mt[MT_M - 1] ^ mt_mix((mt[k] & 0x80000000U) | (mt[0] & 0x7fffffffU));
}

int simcore_bucket_sort(const uint32_t *key, int64_t key_len, int64_t count,
                        uint64_t n_buckets, uint32_t *bucket, uint32_t *pos, int64_t n_pos,
                        int64_t pos_stride)
{
    uint32_t mt[MT_N];
    int64_t i = 1, j = 0, k;
    mt[0] = 19650218U;
    for (k = 1; k < MT_N; k++)
        mt[k] = 1812433253U * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
    for (k = key_len > MT_N ? key_len : MT_N; k > 0; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        if (++i >= MT_N) mt[0] = mt[MT_N - 1], i = 1;
        if (++j >= key_len) j = 0;
    }
    for (k = MT_N - 1; k > 0; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        if (++i >= MT_N) mt[0] = mt[MT_N - 1], i = 1;
    }
    mt[0] = 0x80000000U;

    for (i = 0; i < count; i += MT_N) {  /* a block of MT_N outputs per twist */
        mt_twist(mt);
        for (k = 0; k < MT_N && i + k < count; k++) {
            uint32_t y = mt[k];
            y ^= y >> 11;
            y ^= (y << 7) & 0x9d2c5680U;
            y ^= (y << 15) & 0xefc60000U;
            y ^= y >> 18;
            bucket[i + k] = (uint32_t)(((uint64_t)y * n_buckets) >> 32);
        }
    }
    if (n_pos <= 0) return 0;
    uint32_t *next = calloc(n_buckets, sizeof *next), sum = 0;
    if (!next) return -1;
    for (i = 0; i < count; i++) next[bucket[i]]++;
    for (uint64_t b = 0; b < n_buckets; b++) {  /* exclusive prefix sum */
        uint32_t c = next[b];
        next[b] = sum;
        sum += c;
    }
    for (i = 0; i < n_pos; i++) pos[i * pos_stride] = next[bucket[i]]++;
    free(next);
    return 0;
}
