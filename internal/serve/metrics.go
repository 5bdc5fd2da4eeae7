package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/memo"
)

// Prometheus text exposition (version 0.0.4) for the cache engine and
// the job table. Hand-rolled on purpose: the surface is a dozen metric
// families with one label, which does not justify a client library
// dependency. Counter families carry one sample per cache shard (label
// shard="0".."N-1"), so hot-shard skew is visible to a scraper without
// the server pre-aggregating it away.

// shardCounter describes one per-shard counter family.
type shardCounter struct {
	name string
	help string
	get  func(sh memo.ShardStats) uint64
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	if s.cache == nil {
		fmt.Fprint(w, "# HELP dse_cache_enabled Whether the result cache is enabled.\n")
		fmt.Fprint(w, "# TYPE dse_cache_enabled gauge\n")
		fmt.Fprint(w, "dse_cache_enabled 0\n")
	} else {
		st := s.cache.Stats()
		fmt.Fprint(w, "# HELP dse_cache_enabled Whether the result cache is enabled.\n")
		fmt.Fprint(w, "# TYPE dse_cache_enabled gauge\n")
		fmt.Fprint(w, "dse_cache_enabled 1\n")
		fmt.Fprintf(w, "# HELP dse_cache_capacity Maximum resident entries across all shards.\n")
		fmt.Fprintf(w, "# TYPE dse_cache_capacity gauge\n")
		fmt.Fprintf(w, "dse_cache_capacity %d\n", st.Capacity)
		fmt.Fprintf(w, "# HELP dse_cache_info Cache configuration (value is always 1).\n")
		fmt.Fprintf(w, "# TYPE dse_cache_info gauge\n")
		fmt.Fprintf(w, "dse_cache_info{policy=%s} 1\n", strconv.Quote(st.Policy))

		counters := []shardCounter{
			{"dse_cache_hits_total", "Lookups served from a resident entry.",
				func(sh memo.ShardStats) uint64 { return sh.Hits }},
			{"dse_cache_misses_total", "Lookups that found no resident entry.",
				func(sh memo.ShardStats) uint64 { return sh.Misses }},
			{"dse_cache_coalesced_total", "Callers that shared another caller's in-flight compute.",
				func(sh memo.ShardStats) uint64 { return sh.Shared }},
			{"dse_cache_evictions_total", "Entries removed by the eviction policy to make room.",
				func(sh memo.ShardStats) uint64 { return sh.Evictions }},
		}
		for _, c := range counters {
			writeShardCounter(w, c, st.Shards)
		}
		fmt.Fprintf(w, "# HELP dse_cache_entries Resident entries per shard.\n")
		fmt.Fprintf(w, "# TYPE dse_cache_entries gauge\n")
		for i, sh := range st.Shards {
			fmt.Fprintf(w, "dse_cache_entries{shard=\"%d\"} %d\n", i, sh.Entries)
		}
	}

	states := s.JobStates()
	fmt.Fprint(w, "# HELP dse_jobs Jobs resident in the job table by state.\n")
	fmt.Fprint(w, "# TYPE dse_jobs gauge\n")
	for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "dse_jobs{state=%s} %d\n", strconv.Quote(state), states[state])
	}
}

func writeShardCounter(w io.Writer, c shardCounter, shards []memo.ShardStats) {
	fmt.Fprintf(w, "# HELP %s %s\n", c.name, c.help)
	fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
	for i, sh := range shards {
		fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", c.name, i, c.get(sh))
	}
}
