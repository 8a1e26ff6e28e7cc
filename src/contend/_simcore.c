/* Compiled event loop of contend.simulator: the same timing model as the
 * pure-Python _run, which stays the reference it is tested against.
 *
 * Thread i issues n_events[i] accesses, cycling through its line feed
 * feed[i][0 .. feed_len[i]); entry e names line base_line[i] + (e >> 1),
 * written when e & 1.  The cache index is line & set_mask: with the bank
 * and set fields directly above the line offset, that is a bijection with
 * the (bank, set) pairs.  Threads are popped in (ready time, id) order, so
 * ids numbered in (workload, thread) order break ties as _run does.
 *
 * Counters are per workload (wl[i] is thread i's); totals receives the
 * whole run's elapsed cycles and serviced controller lines.  labels is NULL
 * or receives one hit flag per event, thread after thread.  Returns 0, or
 * -1 when memory runs out.
 */
#include <stdint.h>
#include <stdlib.h>

static int before(const int64_t *t, int a, int b)
{
    return t[a] < t[b] || (t[a] == t[b] && a < b);
}

static void sift_down(int *heap, int n, const int64_t *t, int i)
{
    for (;;) {
        int l = 2 * i + 1, m = i;
        if (l < n && before(t, heap[l], heap[m])) m = l;
        if (l + 1 < n && before(t, heap[l + 1], heap[m])) m = l + 1;
        if (m == i) return;
        int x = heap[i];
        heap[i] = heap[m];
        heap[m] = x;
        i = m;
    }
}

int simcore_run(int n_threads, const uint32_t *const *feed, const int64_t *feed_len,
                const int64_t *n_events, const uint64_t *base_line, const int32_t *wl,
                uint64_t set_mask, int64_t assoc, int64_t hit_latency,
                int64_t mem_latency, int64_t interval, int wb_slot,
                int64_t *accesses, int64_t *hits, int64_t *fetched,
                int64_t *written_back, int64_t *finish, int64_t *totals,
                uint8_t *labels)
{
    uint64_t n_slots = (set_mask + 1) * (uint64_t)assoc;
    uint64_t *tag = malloc(n_slots * sizeof *tag);
    uint64_t *stamp = malloc(n_slots * sizeof *stamp);
    uint8_t *dirty = malloc(n_slots);
    int64_t *fill = calloc(set_mask + 1, sizeof *fill);
    int64_t *t = calloc(n_threads + 1, sizeof *t);
    int64_t *done = calloc(n_threads + 1, sizeof *done);
    int64_t *pos = calloc(n_threads + 1, sizeof *pos);
    int64_t *label_at = calloc(n_threads + 1, sizeof *label_at);
    int *heap = malloc((n_threads + 1) * sizeof *heap);
    int ok = tag && stamp && dirty && fill && t && done && pos && label_at && heap;

    int n = ok ? n_threads : 0;
    for (int i = 0; i < n; i++) {
        heap[i] = i;  /* all ready at 0: id order is already a heap */
        if (i > 0) label_at[i] = label_at[i - 1] + n_events[i - 1];
    }
    uint64_t clock = 0;
    int64_t mc_free = 0, last_dequeue = 0, serviced = 0;
    while (n > 0) {
        int id = heap[0], w = wl[id];
        int64_t now = t[id];
        if (done[id] == n_events[id]) {
            if (now > finish[w]) finish[w] = now;
            heap[0] = heap[--n];
            sift_down(heap, n, t, 0);
            continue;
        }
        uint32_t e = feed[id][pos[id]];
        if (++pos[id] == feed_len[id]) pos[id] = 0;
        uint64_t line = base_line[id] + (e >> 1);
        uint64_t set = line & set_mask, first = set * (uint64_t)assoc;
        uint64_t *set_tag = tag + first, *set_stamp = stamp + first;
        uint8_t *set_dirty = dirty + first;
        int64_t *set_fill = fill + set;
        int64_t way = 0;
        while (way < *set_fill && set_tag[way] != line) way++;
        int hit = way < *set_fill, wrote_back = 0;
        if (hit) {
            set_dirty[way] |= e & 1;
        } else {
            if (*set_fill < assoc) {
                way = (*set_fill)++;
            } else {  /* evict the least recently used way */
                way = 0;
                for (int64_t j = 1; j < assoc; j++)
                    if (set_stamp[j] < set_stamp[way]) way = j;
                wrote_back = set_dirty[way];
            }
            set_tag[way] = line;
            set_dirty[way] = e & 1;
        }
        set_stamp[way] = ++clock;
        if (labels) labels[label_at[id] + done[id]] = (uint8_t)hit;
        done[id]++;
        accesses[w]++;
        if (hit) {
            hits[w]++;
            t[id] = now + hit_latency;
        } else {
            int64_t dq = mc_free > now ? mc_free : now;
            mc_free = dq + interval;
            last_dequeue = dq;
            serviced++;
            fetched[w]++;
            t[id] = dq + mem_latency;
            if (wrote_back) {
                written_back[w]++;
                if (wb_slot) {
                    last_dequeue = mc_free;
                    mc_free += interval;
                    serviced++;
                }
            }
        }
        sift_down(heap, n, t, 0);
    }
    if (ok) {
        int64_t elapsed = last_dequeue;
        for (int i = 0; i < n_threads; i++)
            if (finish[wl[i]] > elapsed) elapsed = finish[wl[i]];
        totals[0] = elapsed;
        totals[1] = serviced;
    }
    free(tag);
    free(stamp);
    free(dirty);
    free(fill);
    free(t);
    free(done);
    free(pos);
    free(label_at);
    free(heap);
    return ok ? 0 : -1;
}
