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
 * controller or change what is cached (ROADMAP items 4, 10 and 11: miss
 * slots and bus stages, way partitions and rate caps, DRAM) must keep the
 * invariant or turn the closed form off.
 *
 * Counters are per workload (wl[i] is thread i's); totals receives the
 * whole run's elapsed cycles and serviced controller lines.  labels is NULL
 * or receives one hit flag per event, thread after thread.  Returns the
 * number of events run in closed form, or -1 when memory runs out.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

struct thread {
    int64_t t, done, pos, label_at;  /* ready time, events done, feed index, first label */
    int64_t wrap_sv, warm_sv;  /* serviced at the last hit wrap, and when counted warm */
};

int64_t simcore_run(int n_threads, const uint32_t *const *feed, const int64_t *feed_len,
                    const int64_t *start, const int64_t *n_events, const uint64_t *base_line,
                    const int32_t *wl, uint64_t set_mask, int64_t assoc, int64_t hit_latency,
                    int64_t mem_latency, int64_t interval, int wb_slot,
                    int64_t *accesses, int64_t *hits, int64_t *fetched,
                    int64_t *written_back, int64_t *finish, int64_t *totals,
                    uint8_t *labels)
{
    /* zeroed, as set[0] is read even while its set is empty; that also brings
     * the sets into the CPU caches before the loop */
    uint64_t *ways = calloc((set_mask + 1) * (uint64_t)assoc, sizeof *ways);
    int64_t *fill = calloc(set_mask + 1, sizeof *fill);
    struct thread *th = calloc(n_threads + 1, sizeof *th);
    /* the hit and miss queues: rings of thread ids, heads and tails count up */
    uint32_t ring = 1, hh = 0, ht = 0, mh = 0, mt = 0;
    while (ring < (uint32_t)n_threads) ring <<= 1;
    int *hq = calloc(ring, sizeof *hq), *mq = calloc(ring, sizeof *mq);
    int ok = ways && fill && th && hq && mq;

    int live = 0;  /* unfinished threads */
    for (int i = 0; ok && i < n_threads; i++) {
        th[i].pos = start[i];
        th[i].wrap_sv = th[i].warm_sv = -1;
        if (i > 0) th[i].label_at = th[i - 1].label_at + n_events[i - 1];
        if (n_events[i] > 0) hq[ht++] = i, live++;  /* all ready at 0, in id order */
    }
    int64_t mc_free = 0, last_dequeue = 0, serviced = 0, closed = 0;
    int64_t warm_for = -1;  /* n_warm unfinished threads are warm for serviced == warm_for */
    int n_warm = 0;
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
        }
    }
    if (ok) {
        int64_t elapsed = last_dequeue;
        for (int i = 0; i < n_threads; i++) {
            int w = wl[i];
            int64_t r = n_events[i] - th[i].done, t = th[i].t + r * hit_latency;
            if (r > 0) {  /* the loop broke with every unfinished thread warm: the rest hit */
                accesses[w] += r;
                hits[w] += r;
                if (labels) memset(labels + th[i].label_at + th[i].done, 1, r);
                if (t > finish[w]) finish[w] = t;
                closed += r;
            }
            if (finish[w] > elapsed) elapsed = finish[w];
        }
        totals[0] = elapsed;
        totals[1] = serviced;
    }
    free(ways);
    free(fill);
    free(th);
    free(hq);
    free(mq);
    return ok ? closed : -1;
}

/* The bucket sort of contend.patterns.BucketSort: the bucket index of each
 * of its first count keys, and with pos the stable output position.
 *
 * The keys are those of CPython's random.Random(seed).randbytes(4 * count)
 * read as little-endian uint32: MT19937 (Matsumoto and Nishimura, 1998)
 * seeded by init_by_array over key[0 .. key_len), the 32-bit words of
 * abs(seed) least significant first ([0] for seed 0), then one output per
 * sort key.  Sort key i, of value v, goes to bucket[i] = (v * n_buckets) >>
 * 32.  pos is NULL, or receives pos[i], the number of sort keys before key i
 * in a sort by bucket that keeps equal buckets in key order: a counting sort
 * over n_buckets counters, which needs every key, so count must then be the
 * sort's n_keys.  Keeps no state between calls.  Returns 0, or -1 when
 * memory runs out.
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
                        uint64_t n_buckets, uint32_t *bucket, uint32_t *pos)
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
    if (!pos) return 0;
    uint32_t *next = calloc(n_buckets, sizeof *next), sum = 0;
    if (!next) return -1;
    for (i = 0; i < count; i++) next[bucket[i]]++;
    for (uint64_t b = 0; b < n_buckets; b++) {  /* exclusive prefix sum */
        uint32_t c = next[b];
        next[b] = sum;
        sum += c;
    }
    for (i = 0; i < count; i++) pos[i] = next[bucket[i]]++;
    free(next);
    return 0;
}
