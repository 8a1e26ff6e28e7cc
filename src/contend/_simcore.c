/* Compiled event loop of contend.simulator: the same timing model as the
 * pure-Python _run, which stays the reference it is tested against.
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
 * stages in front of the controller (ROADMAP item 4), break this.
 *
 * Counters are per workload (wl[i] is thread i's); totals receives the
 * whole run's elapsed cycles and serviced controller lines.  labels is NULL
 * or receives one hit flag per event, thread after thread.  Returns 0, or
 * -1 when memory runs out.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

struct thread {
    int64_t t, done, pos, label_at;  /* ready time, events done, feed index, first label */
};

int simcore_run(int n_threads, const uint32_t *const *feed, const int64_t *feed_len,
                const int64_t *start, const int64_t *n_events, const uint64_t *base_line,
                const int32_t *wl, uint64_t set_mask, int64_t assoc, int64_t hit_latency,
                int64_t mem_latency, int64_t interval, int wb_slot,
                int64_t *accesses, int64_t *hits, int64_t *fetched,
                int64_t *written_back, int64_t *finish, int64_t *totals,
                uint8_t *labels)
{
    uint64_t *ways = malloc((set_mask + 1) * (uint64_t)assoc * sizeof *ways);
    int64_t *fill = calloc(set_mask + 1, sizeof *fill);
    struct thread *th = calloc(n_threads + 1, sizeof *th);
    /* the hit and miss queues: rings of thread ids, heads and tails count up */
    uint32_t ring = 1, hh = 0, ht = 0, mh = 0, mt = 0;
    while (ring < (uint32_t)n_threads) ring <<= 1;
    int *hq = calloc(ring, sizeof *hq), *mq = calloc(ring, sizeof *mq);
    int ok = ways && fill && th && hq && mq;

    for (int i = 0; ok && i < n_threads; i++) {
        th[i].pos = start[i];
        if (i > 0) th[i].label_at = th[i - 1].label_at + n_events[i - 1];
        if (n_events[i] > 0) hq[ht++] = i;  /* all ready at 0, in id order */
    }
    int64_t mc_free = 0, last_dequeue = 0, serviced = 0;
    while (hh != ht || mh != mt) {
        int h = hq[hh & (ring - 1)], m = mq[mh & (ring - 1)];
        int from_hits = mh == mt || (hh != ht && (th[h].t < th[m].t
                                                  || (th[h].t == th[m].t && h < m)));
        int id = from_hits ? h : m, w = wl[id];
        if (from_hits) hh++; else mh++;
        struct thread *p = th + id;
        int64_t now = p->t;

        uint32_t e = feed[id][p->pos];
        if (++p->pos == feed_len[id]) p->pos = 0;
        uint64_t line = base_line[id] + (e >> 1);
        uint64_t *set = ways + (line & set_mask) * (uint64_t)assoc;
        int64_t *set_fill = fill + (line & set_mask);
        int64_t way = 0;
        while (way < *set_fill && set[way] >> 1 != line) way++;
        int hit = way < *set_fill, wrote_back = 0;
        uint64_t entry = line << 1 | (e & 1);
        if (hit) {
            entry |= set[way];
        } else if (*set_fill < assoc) {
            way = (*set_fill)++;
        } else {  /* evict the least recently used way */
            way = assoc - 1;
            wrote_back = set[way] & 1;
        }
        memmove(set + 1, set, way * sizeof *set);
        set[0] = entry;

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
        } else if (hit) {
            hq[ht++ & (ring - 1)] = id;
        } else {
            mq[mt++ & (ring - 1)] = id;
        }
    }
    if (ok) {
        int64_t elapsed = last_dequeue;
        for (int i = 0; i < n_threads; i++)
            if (finish[wl[i]] > elapsed) elapsed = finish[wl[i]];
        totals[0] = elapsed;
        totals[1] = serviced;
    }
    free(ways);
    free(fill);
    free(th);
    free(hq);
    free(mq);
    return ok ? 0 : -1;
}
