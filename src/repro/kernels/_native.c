/* repro.kernels native backend — fused sketch kernels.
 *
 * One C translation unit, no Python.h: the library is compiled on demand
 * with the system C compiler (see native_backend.py) and driven through
 * ctypes, so it works from a plain `PYTHONPATH=src` checkout without a
 * build step or installed headers.
 *
 * Every function fuses the three inner loops the NumPy reference backend
 * runs as separate array passes — 64-bit fingerprinting (splitmix64 for
 * integer keys, or host-side FNV fingerprints for string keys), position
 * computation (exact Carter–Wegman multiply-mod-Mersenne-61, or simple
 * tabulation), and the counter gather/scatter — into a single pass per
 * batch with no intermediate arrays.  Mod-2^61-1 reductions use shift-and-
 * fold (2^61 = 1 mod p), never a 128-bit division, and the batch loops run
 * level-outer wherever updates commute so each level's hash constants and
 * tabulation tables stay cache-resident.
 *
 * Bit-identity contract: these are the *same integer recurrences* as
 * repro/sketches/hashing.py, so every table cell and every estimate is
 * identical to the NumPy backend's.  The equivalence suite in
 * tests/kernels/ enforces this for every sketch, scheme, and key type.
 *
 * Conventions shared by all entry points:
 *   scheme    0 = universal (Carter–Wegman a,b per level)
 *             1 = tabulation (8x256 uint64 tables per level)
 *   key_mode  0 = `keys` holds n raw uint64 keys; fingerprints are
 *                 computed in-kernel per level (seed, and seed^SIGN_XOR
 *                 for signs)
 *             1 = `fps` (and `sign_fps`) hold precomputed (depth, n)
 *                 row-major fingerprint matrices (string-key batches)
 * Signed counter arithmetic intentionally wraps like NumPy int64; the
 * library is compiled with -fwrapv.
 */

#include <stdint.h>
#include <stdlib.h>

#define P61 0x1FFFFFFFFFFFFFFFULL /* 2^61 - 1 */
#define GOLD 0x9E3779B97F4A7C15ULL
#define SIGN_XOR_UNIVERSAL 0x5A5A5A5AULL
#define SIGN_XOR_TABULATION 0x3C3C3C3CULL

/* splitmix64 finalizer over (key ^ seed*GOLD): fingerprint64 for ints. */
static inline uint64_t fingerprint_int(uint64_t key, uint64_t seed) {
    uint64_t v = key ^ (seed * GOLD);
    v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
    v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
    return v ^ (v >> 31);
}

/* x mod 2^61-1 for any uint64 x, by folding the bits above 2^61 down
 * (2^61 = 1 mod p) — exact, no division. */
static inline uint64_t mod61(uint64_t x) {
    uint64_t r = (x >> 61) + (x & P61);
    return r >= P61 ? r - P61 : r;
}

/* Exact (a * (fp mod p) + b) mod p for the Mersenne prime p = 2^61-1.
 * The 128-bit product is reduced by two folds, not __umodti3. */
static inline uint64_t carter_wegman(uint64_t a, uint64_t b, uint64_t fp) {
    unsigned __int128 prod = (unsigned __int128)a * mod61(fp) + b;
    uint64_t r = ((uint64_t)prod & P61) + (uint64_t)(prod >> 61);
    r = (r >> 61) + (r & P61);
    return r >= P61 ? r - P61 : r;
}

/* Division-free x mod d for the batch-invariant table width d: one 128-bit
 * mulhi against a precomputed reciprocal, then bounded exact fixups.  The
 * reciprocal magic = (2^(64+shift) - 1) / d (shift = floor(log2 d), see
 * init_magic) *under*estimates 1/d, so the quotient never overshoots and
 * trails floor(x/d) by at most 1; the loop runs at most once for any
 * x < 2^64.  This replaces a ~30-cycle 64-bit division in every position
 * computation with a handful of cheap ops. */
static inline uint64_t fastmod(uint64_t x, uint64_t d, uint64_t magic,
                               int shift) {
    uint64_t q = (uint64_t)(((unsigned __int128)magic * x) >> 64) >> shift;
    uint64_t r = x - q * d;
    while (r >= d) r -= d;
    return r;
}

/* XOR-fold of the 8 fingerprint bytes through a level's 8x256 table. */
static inline uint64_t tabulate(const uint64_t *table, uint64_t fp) {
    uint64_t acc = 0;
    int i;
    for (i = 0; i < 8; i++) {
        acc ^= table[(size_t)i * 256 + ((fp >> (8 * i)) & 0xFF)];
    }
    return acc;
}

struct hash_ctx {
    int scheme;
    int key_mode;
    int64_t depth;
    uint64_t range;
    const uint64_t *a;
    const uint64_t *b;
    const uint64_t *tables; /* depth * 8 * 256 */
    const uint64_t *seeds;  /* depth */
    const uint64_t *keys;   /* n (key_mode 0) */
    const uint64_t *fps;    /* depth * n (key_mode 1) */
    const uint64_t *sign_fps; /* depth * n (key_mode 1, sign ops only) */
    int64_t n;
    uint64_t magic; /* floor(2^(64+mshift)/range); ~0 for range == 1 */
    int mshift;
};

static inline void init_magic(struct hash_ctx *c) {
    uint64_t d = c->range;
    /* shift = floor(log2(d)).  With a ceil shift the magic for every
     * non-power-of-two d exceeds 2^64 and truncates to garbage (the lost
     * high bit shorts the quotient by ~x/2^shift — an effective hang in
     * the fixup loop); with the floor shift (2^(64+shift) - 1) / d always
     * fits in 64 bits and the quotient trails the true one by at most 1.
     * d == 1 needs no special case: magic = 2^64-1, and mulhi(2^64-1, x)
     * = x-1 for x >= 1, so a single fixup lands on 0. */
    int shift = 0;
    while (shift < 63 && (d >> (shift + 1)) != 0) shift++;
    c->mshift = shift;
    c->magic = (uint64_t)(((((unsigned __int128)1) << (64 + shift)) - 1) / d);
}

/* Raw fingerprint of key j at level l for position hashing. */
static inline uint64_t fp_of(const struct hash_ctx *c, int64_t l, int64_t j) {
    return c->key_mode ? c->fps[l * c->n + j]
                       : fingerprint_int(c->keys[j], c->seeds[l]);
}

/* Position of key j at level l: matches UniversalHash.hash_batch /
 * TabulationHash.hash_batch exactly. */
static inline int64_t position_of(const struct hash_ctx *c, int64_t l, int64_t j) {
    uint64_t fp = fp_of(c, l, j);
    uint64_t h = c->scheme == 0
                     ? carter_wegman(c->a[l], c->b[l], fp)
                     : tabulate(c->tables + (size_t)l * 8 * 256, fp);
    return (int64_t)fastmod(h, c->range, c->magic, c->mshift);
}

/* Sign of key j at level l: matches UniversalHash.sign_batch (CW parity of
 * the seed^0x5A5A5A5A fingerprint) / TabulationHash.sign_batch (parity of
 * the seed^0x3C3C3C3C fingerprint). */
static inline int64_t sign_of(const struct hash_ctx *c, int64_t l, int64_t j) {
    uint64_t fp;
    if (c->key_mode) {
        fp = c->sign_fps[l * c->n + j];
    } else {
        uint64_t xor_c = c->scheme == 0 ? SIGN_XOR_UNIVERSAL : SIGN_XOR_TABULATION;
        fp = fingerprint_int(c->keys[j], c->seeds[l] ^ xor_c);
    }
    if (c->scheme == 0) {
        return (carter_wegman(c->a[l], c->b[l], fp) & 1) ? 1 : -1;
    }
    return (fp & 1) ? 1 : -1;
}

/* Level-outer position fill with per-level constants hoisted: one level's
 * (a, b) pair or 16 KiB tabulation table stays hot across the whole batch. */
static void positions_level(const struct hash_ctx *c, int64_t l, int64_t *out) {
    uint64_t range = c->range, magic = c->magic;
    int shift = c->mshift;
    int64_t j, n = c->n;
    if (c->scheme == 0) {
        uint64_t a = c->a[l], b = c->b[l];
        if (c->key_mode == 0) {
            uint64_t seed = c->seeds[l];
            for (j = 0; j < n; j++) {
                out[j] = (int64_t)fastmod(
                    carter_wegman(a, b, fingerprint_int(c->keys[j], seed)),
                    range, magic, shift);
            }
        } else {
            const uint64_t *row = c->fps + l * n;
            for (j = 0; j < n; j++) {
                out[j] = (int64_t)fastmod(
                    carter_wegman(a, b, row[j]), range, magic, shift);
            }
        }
    } else {
        const uint64_t *table = c->tables + (size_t)l * 8 * 256;
        if (c->key_mode == 0) {
            uint64_t seed = c->seeds[l];
            for (j = 0; j < n; j++) {
                out[j] = (int64_t)fastmod(
                    tabulate(table, fingerprint_int(c->keys[j], seed)),
                    range, magic, shift);
            }
        } else {
            const uint64_t *row = c->fps + l * n;
            for (j = 0; j < n; j++) {
                out[j] = (int64_t)fastmod(tabulate(table, row[j]), range,
                                          magic, shift);
            }
        }
    }
}

/* Level-outer sign fill (+1/-1), same hoisting as positions_level. */
static void signs_level(const struct hash_ctx *c, int64_t l, int64_t *out) {
    int64_t j, n = c->n;
    if (c->key_mode == 1) {
        const uint64_t *row = c->sign_fps + l * n;
        if (c->scheme == 0) {
            uint64_t a = c->a[l], b = c->b[l];
            for (j = 0; j < n; j++) {
                out[j] = (carter_wegman(a, b, row[j]) & 1) ? 1 : -1;
            }
        } else {
            for (j = 0; j < n; j++) {
                out[j] = (row[j] & 1) ? 1 : -1;
            }
        }
        return;
    }
    if (c->scheme == 0) {
        uint64_t a = c->a[l], b = c->b[l];
        uint64_t seed = c->seeds[l] ^ SIGN_XOR_UNIVERSAL;
        for (j = 0; j < n; j++) {
            out[j] = (carter_wegman(a, b, fingerprint_int(c->keys[j], seed)) & 1)
                         ? 1 : -1;
        }
    } else {
        uint64_t seed = c->seeds[l] ^ SIGN_XOR_TABULATION;
        for (j = 0; j < n; j++) {
            out[j] = (fingerprint_int(c->keys[j], seed) & 1) ? 1 : -1;
        }
    }
}

#define CTX_ARGS                                                            \
    int scheme, const uint64_t *a, const uint64_t *b, const uint64_t *tables, \
    const uint64_t *seeds, int key_mode, const uint64_t *keys,              \
    const uint64_t *fps, const uint64_t *sign_fps, int64_t n

#define MAKE_CTX(depth_, range_)                                            \
    struct hash_ctx ctx = {scheme, key_mode, (depth_), (uint64_t)(range_),  \
                           a, b, tables, seeds, keys, fps, sign_fps, n,     \
                           0, 0};                                           \
    init_magic(&ctx)

/* ------------------------------------------------------------------ */
/* Count-Min                                                           */
/* ------------------------------------------------------------------ */

void repro_cms_ingest(int64_t *table, int64_t depth, int64_t width,
                      CTX_ARGS, const int64_t *counts, int conservative) {
    MAKE_CTX(depth, width);
    int64_t j, l;
    if (!conservative) {
        /* Plain adds commute, so run level-outer with hoisted constants.
         * Fused: position and scatter-add in the same pass, no scratch. */
        for (l = 0; l < depth; l++) {
            int64_t *row = table + l * width;
            uint64_t range = ctx.range, magic = ctx.magic;
            int shift = ctx.mshift;
            if (scheme == 0) {
                uint64_t al = ctx.a[l], bl = ctx.b[l];
                if (key_mode == 0) {
                    uint64_t seed = ctx.seeds[l];
                    for (j = 0; j < n; j++) {
                        row[fastmod(carter_wegman(
                                        al, bl, fingerprint_int(keys[j], seed)),
                                    range, magic, shift)] += counts[j];
                    }
                } else {
                    const uint64_t *fpr = fps + l * n;
                    for (j = 0; j < n; j++) {
                        row[fastmod(carter_wegman(al, bl, fpr[j]), range,
                                    magic, shift)] += counts[j];
                    }
                }
            } else {
                const uint64_t *tbl = tables + (size_t)l * 8 * 256;
                if (key_mode == 0) {
                    uint64_t seed = ctx.seeds[l];
                    for (j = 0; j < n; j++) {
                        row[fastmod(tabulate(tbl,
                                             fingerprint_int(keys[j], seed)),
                                    range, magic, shift)] += counts[j];
                    }
                } else {
                    const uint64_t *fpr = fps + l * n;
                    for (j = 0; j < n; j++) {
                        row[fastmod(tabulate(tbl, fpr[j]), range, magic,
                                    shift)] += counts[j];
                    }
                }
            }
        }
        return;
    }
    {
        /* Conservative updates read min-over-levels per key, so replay must
         * stay key-ordered. */
        int64_t *pos = (int64_t *)malloc((size_t)depth * sizeof(int64_t));
        if (pos == NULL) return; /* caller pre-checks depth; defensive only */
        for (j = 0; j < n; j++) {
            int64_t count = counts[j];
            int64_t minimum, target;
            if (count == 0) continue;
            for (l = 0; l < depth; l++) pos[l] = position_of(&ctx, l, j);
            minimum = table[0 * width + pos[0]];
            for (l = 1; l < depth; l++) {
                int64_t cell = table[l * width + pos[l]];
                if (cell < minimum) minimum = cell;
            }
            /* Raising every counter to min+count equals `count` consecutive
             * conservative +1 updates of the same key. */
            target = minimum + count;
            for (l = 0; l < depth; l++) {
                int64_t *cell = &table[l * width + pos[l]];
                if (*cell < target) *cell = target;
            }
        }
        free(pos);
    }
}

void repro_cms_query(const int64_t *table, int64_t depth, int64_t width,
                     CTX_ARGS, double *out) {
    MAKE_CTX(depth, width);
    int64_t *minima = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *pos = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t j, l;
    if (minima == NULL || pos == NULL) {
        free(minima);
        free(pos);
        return;
    }
    positions_level(&ctx, 0, pos);
    for (j = 0; j < n; j++) minima[j] = table[pos[j]];
    for (l = 1; l < depth; l++) {
        const int64_t *row = table + l * width;
        positions_level(&ctx, l, pos);
        for (j = 0; j < n; j++) {
            int64_t cell = row[pos[j]];
            if (cell < minima[j]) minima[j] = cell;
        }
    }
    for (j = 0; j < n; j++) out[j] = (double)minima[j];
    free(minima);
    free(pos);
}

/* ------------------------------------------------------------------ */
/* Count Sketch                                                        */
/* ------------------------------------------------------------------ */

void repro_cs_ingest(int64_t *table, int64_t depth, int64_t width,
                     CTX_ARGS, const int64_t *counts) {
    MAKE_CTX(depth, width);
    int64_t j, l;
    /* Signed adds commute, so run level-outer and fuse position, sign, and
     * scatter into one pass — no pos/sgn scratch arrays (whose write+reread
     * traffic dominated the split version at batch sizes past L2). */
    for (l = 0; l < depth; l++) {
        int64_t *row = table + l * width;
        uint64_t range = ctx.range, magic = ctx.magic;
        int shift = ctx.mshift;
        if (scheme == 0) {
            uint64_t al = ctx.a[l], bl = ctx.b[l];
            if (key_mode == 0) {
                uint64_t seed = ctx.seeds[l];
                uint64_t sign_seed = seed ^ SIGN_XOR_UNIVERSAL;
                for (j = 0; j < n; j++) {
                    uint64_t key = keys[j];
                    uint64_t pos = fastmod(
                        carter_wegman(al, bl, fingerprint_int(key, seed)),
                        range, magic, shift);
                    uint64_t parity =
                        carter_wegman(al, bl, fingerprint_int(key, sign_seed)) & 1;
                    row[pos] += parity ? counts[j] : -counts[j];
                }
            } else {
                const uint64_t *fpr = fps + l * n;
                const uint64_t *sfpr = sign_fps + l * n;
                for (j = 0; j < n; j++) {
                    uint64_t pos = fastmod(carter_wegman(al, bl, fpr[j]),
                                           range, magic, shift);
                    uint64_t parity = carter_wegman(al, bl, sfpr[j]) & 1;
                    row[pos] += parity ? counts[j] : -counts[j];
                }
            }
        } else {
            const uint64_t *tbl = tables + (size_t)l * 8 * 256;
            if (key_mode == 0) {
                uint64_t seed = ctx.seeds[l];
                uint64_t sign_seed = seed ^ SIGN_XOR_TABULATION;
                for (j = 0; j < n; j++) {
                    uint64_t key = keys[j];
                    uint64_t pos = fastmod(
                        tabulate(tbl, fingerprint_int(key, seed)),
                        range, magic, shift);
                    uint64_t parity = fingerprint_int(key, sign_seed) & 1;
                    row[pos] += parity ? counts[j] : -counts[j];
                }
            } else {
                const uint64_t *fpr = fps + l * n;
                const uint64_t *sfpr = sign_fps + l * n;
                for (j = 0; j < n; j++) {
                    uint64_t pos = fastmod(tabulate(tbl, fpr[j]), range,
                                           magic, shift);
                    row[pos] += (sfpr[j] & 1) ? counts[j] : -counts[j];
                }
            }
        }
    }
}

void repro_cs_query(const int64_t *table, int64_t depth, int64_t width,
                    CTX_ARGS, double *out) {
    MAKE_CTX(depth, width);
    /* Fill the (depth, n) signed-estimate matrix level-outer (cache-hot
     * hash constants), then take per-key medians column-wise. */
    int64_t *signed_matrix = (int64_t *)malloc((size_t)depth * n * sizeof(int64_t));
    int64_t *pos = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *sgn = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *column = (int64_t *)malloc((size_t)depth * sizeof(int64_t));
    int64_t j, l, i;
    if (signed_matrix == NULL || pos == NULL || sgn == NULL || column == NULL) {
        free(signed_matrix);
        free(pos);
        free(sgn);
        free(column);
        return;
    }
    for (l = 0; l < depth; l++) {
        const int64_t *row = table + l * width;
        int64_t *dest = signed_matrix + l * n;
        positions_level(&ctx, l, pos);
        signs_level(&ctx, l, sgn);
        for (j = 0; j < n; j++) {
            dest[j] = sgn[j] * row[pos[j]];
        }
    }
    for (j = 0; j < n; j++) {
        for (l = 0; l < depth; l++) {
            int64_t value = signed_matrix[l * n + j];
            /* insertion sort: depth is small (<= a few dozen levels) */
            for (i = l; i > 0 && column[i - 1] > value; i--) {
                column[i] = column[i - 1];
            }
            column[i] = value;
        }
        if (depth & 1) {
            /* np.median of an odd int64 stack: the middle order statistic,
             * converted to float64. */
            out[j] = (double)column[depth / 2];
        } else {
            /* np.median of an even int64 stack: float64 mean of the two
             * middle order statistics (each converted before the sum). */
            out[j] = ((double)column[depth / 2 - 1] +
                      (double)column[depth / 2]) / 2.0;
        }
    }
    free(signed_matrix);
    free(pos);
    free(sgn);
    free(column);
}

/* ------------------------------------------------------------------ */
/* AMS                                                                 */
/* ------------------------------------------------------------------ */

void repro_ams_ingest(int64_t *counters, int64_t depth, CTX_ARGS,
                      const int64_t *counts) {
    MAKE_CTX(depth, 2);
    int64_t *sgn = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t j, l;
    if (sgn == NULL) return;
    for (l = 0; l < depth; l++) {
        int64_t acc = 0;
        signs_level(&ctx, l, sgn);
        for (j = 0; j < n; j++) {
            acc += sgn[j] * counts[j];
        }
        counters[l] += acc;
    }
    free(sgn);
}

/* ------------------------------------------------------------------ */
/* Bloom filter (bits is a NumPy bool array: one byte per bit position) */
/* ------------------------------------------------------------------ */

void repro_bloom_add(uint8_t *bits, int64_t num_hashes, int64_t num_bits,
                     CTX_ARGS) {
    MAKE_CTX(num_hashes, num_bits);
    int64_t j, l;
    for (l = 0; l < num_hashes; l++) {
        for (j = 0; j < n; j++) {
            bits[position_of(&ctx, l, j)] = 1;
        }
    }
}

void repro_bloom_contains(const uint8_t *bits, int64_t num_hashes,
                          int64_t num_bits, CTX_ARGS, uint8_t *out) {
    MAKE_CTX(num_hashes, num_bits);
    int64_t j, l;
    for (j = 0; j < n; j++) {
        uint8_t all_set = 1;
        for (l = 0; l < num_hashes; l++) {
            if (!bits[position_of(&ctx, l, j)]) {
                all_set = 0;
                break;
            }
        }
        out[j] = all_set;
    }
}

void repro_bloom_observe(uint8_t *bits, int64_t num_hashes, int64_t num_bits,
                         CTX_ARGS, uint8_t *new_flags) {
    MAKE_CTX(num_hashes, num_bits);
    int64_t *pos = (int64_t *)malloc((size_t)num_hashes * sizeof(int64_t));
    int64_t j, l;
    if (pos == NULL) return;
    for (j = 0; j < n; j++) {
        uint8_t all_set = 1;
        for (l = 0; l < num_hashes; l++) {
            pos[l] = position_of(&ctx, l, j);
            if (!bits[pos[l]]) all_set = 0;
        }
        if (all_set) {
            new_flags[j] = 0;
        } else {
            for (l = 0; l < num_hashes; l++) bits[pos[l]] = 1;
            new_flags[j] = 1;
        }
    }
    free(pos);
}

/* ------------------------------------------------------------------ */
/* Learned-scheme probe table (repro/kernels/probe_table.py)          */
/* ------------------------------------------------------------------ */

/* Bucket of `key` in the linear-probe table, or -1: home slot is the
 * seed-0 splitmix64 fingerprint masked to the power-of-two capacity; stop
 * at a full-key match, an empty slot (bucket -1), or after max_probe. */
static inline int64_t probe_bucket(const int64_t *tkeys,
                                   const int64_t *tbuckets, uint64_t mask,
                                   int64_t max_probe, int64_t key) {
    uint64_t slot = fingerprint_int((uint64_t)key, 0) & mask;
    int64_t p;
    for (p = 0; p < max_probe; p++) {
        int64_t bucket = tbuckets[slot];
        if (bucket < 0) return -1;
        if (tkeys[slot] == key) return bucket;
        slot = (slot + 1) & mask;
    }
    return -1;
}

void repro_opt_table_lookup(const int64_t *tkeys, const int64_t *tbuckets,
                            int64_t capacity, int64_t max_probe,
                            const int64_t *keys, int64_t n, int64_t *out) {
    uint64_t mask = (uint64_t)capacity - 1;
    int64_t j;
    for (j = 0; j < n; j++) {
        out[j] = probe_bucket(tkeys, tbuckets, mask, max_probe, keys[j]);
    }
}

/* Fused probe + scatter: hit keys add their count to totals[bucket] in
 * arrival order, the order np.add.at applies them in. */
void repro_opt_table_ingest(double *totals, const int64_t *tkeys,
                            const int64_t *tbuckets, int64_t capacity,
                            int64_t max_probe, const int64_t *keys,
                            const int64_t *counts, int64_t n) {
    uint64_t mask = (uint64_t)capacity - 1;
    int64_t j;
    for (j = 0; j < n; j++) {
        int64_t bucket = probe_bucket(tkeys, tbuckets, mask, max_probe, keys[j]);
        if (bucket >= 0) totals[bucket] += (double)counts[j];
    }
}

/* CART descent: each row of the row-major (n, d) float64 X walks from the
 * root (node 0) to a leaf (feature -1), taking children[2*node + went_left]
 * with the same `x <= threshold` as the NumPy reference, so NaN goes right.
 * Returns 0, or 1 (out partly written) when a row reaches a split on a
 * feature index >= d; the caller then re-runs the reference to raise. */
int64_t repro_tree_leaves(const int64_t *feature, const double *threshold,
                          const int64_t *children, const double *X,
                          int64_t n, int64_t d, int64_t *out) {
    int64_t i;
    for (i = 0; i < n; i++) {
        const double *row = X + i * d;
        int64_t node = 0;
        int64_t split;
        while ((split = feature[node]) >= 0) {
            if (split >= d) return 1;
            node = children[2 * node + (row[split] <= threshold[node])];
        }
        out[i] = node;
    }
    return 0;
}
