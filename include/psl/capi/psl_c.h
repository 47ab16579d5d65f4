/* C API for the PSL engine, shaped after libpsl so existing callers can
 * switch with a search-and-replace. All functions are thread-safe for
 * concurrent use of one psl_ctx_t after it is built (lookups are const);
 * building/freeing must not race with lookups on the same context.
 *
 *   psl_ctx_t* psl = pslh_builtin();
 *   int is = pslh_is_public_suffix(psl, "co.uk");              // 1
 *   const char* rd = pslh_registrable_domain(psl, "a.b.co.uk");// "b.co.uk"
 *   pslh_string_free(rd);
 *
 * OWNERSHIP CONTRACT
 * ------------------
 * Every `const char*` RETURNED by this API is a fresh heap allocation owned
 * by the CALLER; release each exactly once with pslh_string_free (never
 * free()/delete — the allocator may differ across the library boundary).
 * NULL is always a valid argument to pslh_string_free. Strings PASSED IN
 * remain owned by the caller; the library copies what it needs before
 * returning. Handles (pslh_ctx_t*, pslh_engine_t*, pslh_client_t*) are
 * owned by the caller and released with their matching *_free — except
 * pslh_builtin()'s context, which the library owns.
 *
 * The "pslh_" prefix ("PSL harms") avoids colliding with a real libpsl in
 * the same process.
 */
#ifndef PSL_CAPI_PSL_C_H_
#define PSL_CAPI_PSL_C_H_

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

/* STATUS CONVENTION
 * -----------------
 * Every fallible call in this API returns pslh_status. The numeric values
 * are frozen (they predate the enum, so older callers comparing against
 * 1/0/-1 keep working):
 *
 *   PSLH_OK            (1)  success — all documented outputs are filled;
 *                           batch answers come from ONE list generation.
 *   PSLH_ERROR         (0)  bad arguments, allocation failure, I/O or
 *                           protocol failure — no live strings are left in
 *                           any output array (all-NULL / zero-filled).
 *   PSLH_BACKPRESSURE (-1)  the serving queue (or daemon) rejected the
 *                           batch; NOTHING was computed — retry later or
 *                           shed load.
 *
 * Predicates (pslh_is_public_suffix, pslh_same_site, pslh_client_connected)
 * return plain int 1/0 — they answer a question, not report an outcome —
 * and getters (generation counters, rule counts) return their value with a
 * documented NULL-safe fallback. */
typedef enum pslh_status {
  PSLH_BACKPRESSURE = -1,
  PSLH_ERROR = 0,
  PSLH_OK = 1
} pslh_status;

typedef struct pslh_ctx pslh_ctx_t;

/* The built-in list: the newest snapshot of the synthetic 2007-2022
 * history (9,368 rules). Never returns NULL. The returned context is owned
 * by the library; do NOT free it. */
const pslh_ctx_t* pslh_builtin(void);

/* Load a list from a file in the published format. Returns NULL on parse
 * errors. Free with pslh_free. */
pslh_ctx_t* pslh_load_from_data(const char* data, size_t length);

void pslh_free(pslh_ctx_t* ctx);

/* 1 if `domain` is a public suffix under `ctx`, else 0. NULL-safe (0). */
int pslh_is_public_suffix(const pslh_ctx_t* ctx, const char* domain);

/* The public suffix (eTLD) of `domain` as a fresh caller-owned string, or
 * NULL on invalid input or allocation failure. Free with pslh_string_free. */
const char* pslh_unregistrable_domain(const pslh_ctx_t* ctx, const char* domain);

/* The registrable domain (eTLD+1) as a fresh caller-owned string, or NULL
 * when `domain` is itself a public suffix, invalid, or on allocation
 * failure. Free with pslh_string_free. */
const char* pslh_registrable_domain(const pslh_ctx_t* ctx, const char* domain);

/* 1 if the two hostnames belong to the same site, else 0. */
int pslh_same_site(const pslh_ctx_t* ctx, const char* a, const char* b);

/* Batch variant: out[i] = pslh_same_site(ctx, a[i], b[i]) for i < count.
 * PSLH_ERROR when ctx/a/b/out is NULL (with count > 0) or any a[i]/b[i] is
 * NULL — `out` is zero-filled in that case if writable. count == 0 succeeds
 * trivially. Never backpressures (no queue involved). */
pslh_status pslh_same_site_batch(const pslh_ctx_t* ctx, const char* const* a,
                                 const char* const* b, size_t count, int* out);

/* Number of rules in the context's list. */
size_t pslh_rule_count(const pslh_ctx_t* ctx);

/* Release a string returned by this API. NULL is a no-op. */
void pslh_string_free(const char* s);

/* Legacy alias of pslh_string_free (kept for existing callers). */
void pslh_free_string(const char* s);

/* ---------------------------------------------------------------------------
 * Serving engine (psl::serve): an RCU hot-swappable query service over a
 * compiled matcher. Batched lookups run on a worker pool behind a bounded
 * queue; reloads are keep-last-good (a failed reload leaves the previous
 * list serving). All pslh_engine_* functions are thread-safe on one engine,
 * except pslh_engine_free, which must not race with anything else.
 *
 * Batch calls return pslh_status (see the convention block above);
 * PSLH_BACKPRESSURE means the bounded queue was full and nothing ran. */

typedef struct pslh_engine pslh_engine_t;

/* Compile `ctx`'s list and start a serving engine over it. `ctx` may be
 * freed afterwards. threads == 0 means 1; max_queue_depth == 0 means 64.
 * Returns NULL when ctx is NULL or on allocation failure. Free with
 * pslh_engine_free (blocks until in-flight batches drain). */
pslh_engine_t* pslh_engine_new(const pslh_ctx_t* ctx, size_t threads, size_t max_queue_depth);

void pslh_engine_free(pslh_engine_t* engine);

/* Generation of the serving state: 1 for the initial list, +1 per
 * successful reload. 0 when `engine` is NULL. */
unsigned long long pslh_engine_generation(const pslh_engine_t* engine);

/* Parse a list from `data` and hot-swap it in. PSLH_ERROR on NULL arguments
 * or parse failure (the previous list keeps serving). */
pslh_status pslh_engine_reload_list(pslh_engine_t* engine, const char* data, size_t length);

/* Validate serialized snapshot bytes (psl::snapshot format) and hot-swap.
 * PSLH_ERROR on NULL arguments or validation failure (the previous state
 * keeps serving). */
pslh_status pslh_engine_reload_snapshot(pslh_engine_t* engine, const unsigned char* bytes,
                                        size_t length);

/* Batched eTLD+1: out[i] receives a fresh caller-owned string, or NULL when
 * hosts[i] has no registrable domain. Free each non-NULL out[i] with
 * pslh_string_free. On PSLH_ERROR / PSLH_BACKPRESSURE out is all-NULL. */
pslh_status pslh_engine_registrable_domains(pslh_engine_t* engine, const char* const* hosts,
                                            size_t count, const char** out);

/* Batched same-site over pairs (a[i], b[i]): out[i] = 1 or 0. */
pslh_status pslh_engine_same_site(pslh_engine_t* engine, const char* const* a,
                                  const char* const* b, size_t count, int* out);

/* TESTING ONLY: make the next `count` internal string allocations fail, so
 * allocation-failure paths can be exercised deterministically. 0 disables.
 * Not for production use; affects the whole process. */
void pslh_test_fail_next_allocs(int count);

/* ---------------------------------------------------------------------------
 * Network client (psl::net): a blocking connection to a psld daemon speaking
 * the PSLN wire protocol (see docs/API.md "psl_net"). One client is one TCP
 * connection and is NOT thread-safe — use one per thread. Every fallible
 * call returns pslh_status; PSLH_BACKPRESSURE means the daemon rejected the
 * batch (retry later). Any PSLH_ERROR may have closed the connection;
 * pslh_client_connected tells.
 */

typedef struct pslh_client pslh_client_t;

/* Connect to a psld daemon at an IPv4 address ("127.0.0.1") and port.
 * timeout_ms bounds connect and each request round trip (0 means 10000).
 * Returns NULL on failure. Free with pslh_client_free (closes the socket). */
pslh_client_t* pslh_client_connect(const char* address, unsigned short port, int timeout_ms);

void pslh_client_free(pslh_client_t* client);

/* 1 while the connection is usable, 0 after an error closed it. */
int pslh_client_connected(const pslh_client_t* client);

/* Round-trip liveness probe: PSLH_OK on pong. */
pslh_status pslh_client_ping(pslh_client_t* client);

/* Batched eTLD+1 over the wire: out[i] receives a fresh caller-owned string
 * (free with pslh_string_free), or NULL when hosts[i] has no registrable
 * domain. On PSLH_ERROR / PSLH_BACKPRESSURE out is all-NULL. */
pslh_status pslh_client_registrable_domains(pslh_client_t* client, const char* const* hosts,
                                            size_t count, const char** out);

/* Batched same-site over pairs (a[i], b[i]): out[i] = 1 or 0. */
pslh_status pslh_client_same_site(pslh_client_t* client, const char* const* a,
                                  const char* const* b, size_t count, int* out);

/* Ship serialized snapshot bytes (psl::snapshot format) for a hot reload.
 * PSLH_ERROR on rejection or I/O failure (keep-last-good either way). */
pslh_status pslh_client_reload_snapshot(pslh_client_t* client, const unsigned char* bytes,
                                        size_t length);

/* Serving generation reported by the daemon, or 0 on failure. */
unsigned long long pslh_client_generation(pslh_client_t* client);

/* Time-travel batched eTLD+1 (requires psld --store): answers come from the
 * stored list version in effect at date_days (days since 1970-01-01; the
 * newest version dated <= date_days). out[i] receives a fresh caller-owned
 * string (free with pslh_string_free), or NULL when hosts[i] had no
 * registrable domain under that version. version_date_days_out (optional,
 * may be NULL) receives the resolved version's date. PSLH_ERROR includes
 * the daemon having no store and date_days preceding its first version; on
 * PSLH_ERROR / PSLH_BACKPRESSURE out is all-NULL. */
pslh_status pslh_client_match_at(pslh_client_t* client, long long date_days,
                                 const char* const* hosts, size_t count, const char** out,
                                 long long* version_date_days_out);

/* Registrable-domain history of one host across every version in the
 * daemon's store (requires psld --store): consecutive equal-answer runs,
 * oldest first, covering the whole stored span. Fills up to max_ranges
 * entries of first_days/last_days/domains (parallel arrays; domains[i] is a
 * fresh caller-owned string freed with pslh_string_free, or NULL for "no
 * registrable domain during that range") and stores the TOTAL range count
 * in *total_out (required) — call with max_ranges 0 (array pointers may
 * then be NULL) to size buffers first. On PSLH_ERROR / PSLH_BACKPRESSURE
 * *total_out is 0 and the arrays are zeroed/NULL; entries past the total
 * are zeroed/NULL too. */
pslh_status pslh_client_divergence(pslh_client_t* client, const char* host,
                                   long long* first_days, long long* last_days,
                                   const char** domains, size_t max_ranges,
                                   size_t* total_out);

/* --- streaming analytics (requires psld --analytics) ---------------------
 * Stream observed (page_host, resource_host) request records into the
 * daemon's census and read the aggregates back. Without --analytics every
 * call here returns PSLH_ERROR (wire detail "analytics.none"). */

/* Ingest one batch of `count` records (parallel arrays; timestamps_ms may
 * be NULL for all-zero timestamps). The whole batch is attributed to ONE
 * serving generation — batches never straddle a reload — and
 * generation_out (optional, may be NULL) receives it. */
pslh_status pslh_client_ingest_batch(pslh_client_t* client, const char* const* page_hosts,
                                     const char* const* resource_hosts,
                                     const long long* timestamps_ms, size_t count,
                                     unsigned long long* generation_out);

/* One census snapshot. Scalar totals are exact (sites formed, first- vs
 * third-party splits, per-eTLD mis-bounding); the tracker table carries
 * sketch estimates with their error bounds: the true request count lies in
 * [requests - requests_err, requests + requests_err] and the true reach
 * (distinct embedding sites) in [reach - reach_err, reach]. All arrays and
 * strings are owned by the struct; release everything with
 * pslh_census_free (safe on a zeroed struct). */
typedef struct pslh_census {
  unsigned long long generation;
  unsigned long long records;
  unsigned long long first_party;
  unsigned long long third_party;
  unsigned long long unique_hosts;
  unsigned long long sites_formed;
  unsigned long long misbound_hosts;
  unsigned long long dropped;
  unsigned long long state_bytes;
  size_t etld_count; /* per-eTLD mis-bounding rows, largest first */
  const char** etlds;
  unsigned long long* etld_misbound;
  size_t tracker_count; /* top-K third-party registrable domains */
  const char** tracker_domains;
  unsigned long long* tracker_requests;
  unsigned long long* tracker_requests_err;
  unsigned long long* tracker_reach;
  unsigned long long* tracker_reach_err;
} pslh_census_t;

/* Fill *out with a fresh census snapshot (top_k 0 = daemon default table
 * size). On PSLH_ERROR / PSLH_BACKPRESSURE *out is zeroed. */
pslh_status pslh_client_census(pslh_client_t* client, unsigned int top_k, pslh_census_t* out);

/* Free every allocation inside *out and zero it. NULL is a no-op. */
void pslh_census_free(pslh_census_t* out);

/* --- the push channel ----------------------------------------------------
 * Mirrors net::Client's subscription surface: subscribe once, then the
 * daemon pushes generation_changed frames on every reload. Pushes are
 * consumed wherever the client reads the socket — interleaved with any
 * response, or explicitly via pslh_client_poll_pushes — and each one
 * updates pslh_client_last_pushed_generation and fires the registered
 * callback (from inside whichever pslh_client_* call drained it). */

/* Fired once per consumed generation_changed push. rule_delta is the signed
 * rule-count change versus the previously pushed generation on this
 * connection. user_data is the pointer registered alongside the callback. */
typedef void (*pslh_push_callback_t)(unsigned long long generation,
                                     unsigned long long rule_count, long long rule_delta,
                                     void* user_data);

/* Register for generation_changed pushes. generation_out (optional, may be
 * NULL) receives the daemon's CURRENT generation, carried in the subscribe
 * response — the caller converges immediately, before any push. Survives
 * pslh_client_reconnect (the reconnected client re-subscribes). */
pslh_status pslh_client_subscribe(pslh_client_t* client, unsigned long long* generation_out);

/* Register `callback` (NULL unregisters) to run for every consumed push.
 * PSLH_ERROR only when `client` is NULL. */
pslh_status pslh_client_set_push_callback(pslh_client_t* client, pslh_push_callback_t callback,
                                          void* user_data);

/* Drain pushes sitting in the socket without blocking or sending anything.
 * drained_out (optional, may be NULL) receives how many arrived. PSLH_ERROR
 * when the connection is closed or a non-push frame arrives between round
 * trips (protocol violation; the connection is closed). */
pslh_status pslh_client_poll_pushes(pslh_client_t* client, size_t* drained_out);

/* Newest generation the daemon has told this client about — via the
 * subscribe response or any consumed push. 0 before either, or when
 * `client` is NULL. */
unsigned long long pslh_client_last_pushed_generation(const pslh_client_t* client);

/* Drop the dead socket, dial the original address/port again, and
 * re-subscribe if pslh_client_subscribe had been called. The push callback
 * carries over. */
pslh_status pslh_client_reconnect(pslh_client_t* client);

#ifdef __cplusplus
}
#endif

#endif /* PSL_CAPI_PSL_C_H_ */
