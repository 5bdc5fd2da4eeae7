package serve

import (
	"fmt"
	"net/http"
	"strconv"
)

// Prometheus text exposition (version 0.0.4) for the cache engine and
// the job table. Hand-rolled on purpose: the surface is a dozen metric
// families, which does not justify a client library dependency. The
// cache is one LRU behind one lock, so each cache family carries one
// unlabeled sample.

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
		fmt.Fprintf(w, "# HELP dse_cache_capacity Maximum resident entries.\n")
		fmt.Fprintf(w, "# TYPE dse_cache_capacity gauge\n")
		fmt.Fprintf(w, "dse_cache_capacity %d\n", st.Capacity)
		fmt.Fprintf(w, "# HELP dse_cache_info Cache configuration (value is always 1).\n")
		fmt.Fprintf(w, "# TYPE dse_cache_info gauge\n")
		fmt.Fprintf(w, "dse_cache_info{policy=%s} 1\n", strconv.Quote(st.Policy))
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"dse_cache_hits_total", "Lookups served from a resident entry.", st.Hits},
			{"dse_cache_misses_total", "Lookups that found no resident entry.", st.Misses},
			{"dse_cache_coalesced_total", "Callers that shared another caller's in-flight compute.", st.Shared},
			{"dse_cache_evictions_total", "Entries removed by the eviction policy to make room.", st.Evictions},
		} {
			fmt.Fprintf(w, "# HELP %s %s\n", c.name, c.help)
			fmt.Fprintf(w, "# TYPE %s counter\n", c.name)
			fmt.Fprintf(w, "%s %d\n", c.name, c.v)
		}
		fmt.Fprintf(w, "# HELP dse_cache_entries Resident entries.\n")
		fmt.Fprintf(w, "# TYPE dse_cache_entries gauge\n")
		fmt.Fprintf(w, "dse_cache_entries %d\n", st.Entries)
	}

	states := s.JobStates()
	fmt.Fprint(w, "# HELP dse_jobs Jobs resident in the job table by state.\n")
	fmt.Fprint(w, "# TYPE dse_jobs gauge\n")
	for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "dse_jobs{state=%s} %d\n", strconv.Quote(state), states[state])
	}
}
