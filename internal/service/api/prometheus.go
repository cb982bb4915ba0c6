package api

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/trace"
)

// Prometheus text exposition (format version 0.0.4) for /metrics. Rendered
// by hand — the serving stack takes no dependencies — from the same
// snapshots the JSON view serializes. Metric names carry the ccd_ prefix;
// latency histograms are exposed in seconds (converted from the internal
// microsecond buckets), size histograms in raw units.

const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPrometheus decides the exposition format: an explicit
// ?format=prometheus wins, otherwise an Accept header asking for text/plain
// (the Prometheus scraper's default) selects text exposition. JSON stays the
// default for humans and the existing tooling.
func wantsPrometheus(format, accept string) bool {
	switch format {
	case "prometheus":
		return true
	case "":
		// Fall through to Accept-header negotiation.
	default:
		return false
	}
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if mt == "text/plain" {
			return true
		}
	}
	return false
}

// promWriter accumulates exposition lines. Errors are sticky and surface at
// the end; a failed scrape write has no recovery beyond dropping the scrape.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the HELP/TYPE preamble for a metric family.
func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// metric emits one sample line. labels is pre-rendered ("" or `key="val"`).
func (p *promWriter) metric(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s%s %s\n", name, labels, formatFloat(v))
}

// counter and gauge emit a single-sample family with its preamble.
func (p *promWriter) counter(name, help string, v int64) {
	p.counterf(name, help, float64(v))
}

// counterf is counter for fractional totals (cumulative seconds).
func (p *promWriter) counterf(name, help string, v float64) {
	p.header(name, help, "counter")
	p.metric(name, "", v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.metric(name, "", v)
}

// formatFloat renders integral values without an exponent so counters read
// naturally, falling back to shortest-form for real fractions.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func label(k, v string) string { return k + `="` + escapeLabel(v) + `"` }

// histogram emits a full cumulative histogram family from the log₂ buckets.
// scale converts bucket upper bounds and the sum into exposition units
// (1e-6 for microsecond histograms → seconds, 1 for raw sizes).
func (p *promWriter) histogram(name, help, labels string, buckets [trace.HistBuckets]int64, count int64, sumScaled float64, scale float64) {
	p.header(name, help, "histogram")
	p.histogramSeries(name, labels, buckets, count, sumScaled, scale)
}

// histogramSeries emits one labeled series of an already-headed histogram
// family (per-endpoint latency shares a single HELP/TYPE preamble).
func (p *promWriter) histogramSeries(name, labels string, buckets [trace.HistBuckets]int64, count int64, sumScaled float64, scale float64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := range buckets {
		cum += buckets[i]
		le := formatFloat(float64(trace.BucketUpper(i)) * scale)
		p.metric(name+"_bucket", labels+sep+label("le", le), float64(cum))
	}
	// Overflow observations live above the last bucket: only +Inf covers
	// them, which is why +Inf must equal _count rather than the running sum.
	p.metric(name+"_bucket", labels+sep+`le="+Inf"`, float64(count))
	p.metric(name+"_sum", labels, sumScaled)
	p.metric(name+"_count", labels, float64(count))
}

// latencyHistogram renders a LatencyStats (µs buckets) in seconds.
func (p *promWriter) latencyHistogram(name, help, labels string, ls service.LatencyStats) {
	p.histogram(name, help, labels, ls.Buckets, ls.Count, ls.TotalSec, 1e-6)
}

// writePrometheus renders the full metrics surface as text exposition.
func (s *Server) writePrometheus(w io.Writer, snap service.Snapshot, uptimeSec float64) error {
	p := &promWriter{w: w}

	// Worker pool.
	p.gauge("ccd_workers", "Worker pool size.", float64(snap.Workers))
	p.gauge("ccd_busy_workers", "Worker slots currently held.", float64(snap.BusyWorkers))
	p.gauge("ccd_peak_busy_workers", "High-water mark of busy workers.", float64(snap.PeakBusyWorkers))
	p.gauge("ccd_saturation", "busy_workers / workers.", snap.Saturation)
	p.counter("ccd_tasks_executed_total", "Units of work executed by the pool.", snap.TasksExecuted)

	// Admission control and priority scheduling.
	adm := snap.Admission
	p.gauge("ccd_admission_capacity", "In-flight request bound (0 = admission control disabled).", float64(adm.Capacity))
	p.gauge("ccd_admission_inflight", "Admitted requests currently in flight.", float64(adm.Inflight))
	p.gauge("ccd_admission_interactive_waiting", "Interactive tasks waiting for a worker slot.", float64(adm.InteractiveWaiting))
	p.counter("ccd_requests_admitted_total", "Requests admitted past the bounded queue.", adm.Admitted)
	p.counter("ccd_requests_shed_total", "Requests shed with 429 by admission control.", adm.Shed)
	p.counter("ccd_background_yields_total", "Background tasks that parked for waiting interactive work.", adm.BackgroundYields)
	p.counter("ccd_requests_ratelimited_total", "Requests refused by the per-client rate limiter.", s.rateLimited.Load())

	// Operations.
	p.counter("ccd_analyses_total", "Analyze requests served.", snap.Analyses)
	p.counter("ccd_fingerprints_total", "Fingerprint computations.", snap.Fingerprints)
	p.counter("ccd_matches_total", "Match queries served.", snap.Matches)
	p.counter("ccd_corpus_adds_total", "Documents added to the serving corpus.", snap.CorpusAdds)

	// Corpus shape.
	p.gauge("ccd_corpus_size", "Documents in the serving corpus.", float64(snap.CorpusSize))
	p.gauge("ccd_corpus_segments", "Immutable segments across all shards.", float64(snap.CorpusSegments))
	p.counter("ccd_corpus_publishes_total", "Generation publishes.", snap.CorpusPublishes)
	p.counter("ccd_corpus_compactions_total", "Segment compactions.", snap.CorpusCompactions)

	// Per-shard scatter-gather.
	p.header("ccd_corpus_shard_docs", "Documents per generation-shard.", "gauge")
	for i, sh := range snap.CorpusShards {
		p.metric("ccd_corpus_shard_docs", label("shard", strconv.Itoa(i)), float64(sh.Size))
	}
	p.header("ccd_corpus_shard_scan_seconds_total", "Cumulative scan wall time per shard.", "counter")
	for i, sh := range snap.CorpusShards {
		p.metric("ccd_corpus_shard_scan_seconds_total", label("shard", strconv.Itoa(i)), float64(sh.ScanUs)/1e6)
	}

	// Match funnel + latency.
	p.counter("ccd_match_candidates_total", "Candidates surviving the n-gram pre-filter.", snap.MatchCandidates)
	p.counter("ccd_match_filter_pruned_total", "Candidates abandoned inside the pre-filter.", snap.MatchFilterPruned)
	p.counter("ccd_match_scored_total", "Candidates fully scored by Algorithm 1.", snap.MatchScored)
	p.counter("ccd_match_cutoff_skipped_total", "Candidates cut short by the top-K bound.", snap.MatchCutoffSkipped)
	p.latencyHistogram("ccd_match_latency_seconds", "Match service time.", "", snap.MatchLatency)

	// Durability (store attached only).
	if d := snap.Durability; d != nil {
		p.latencyHistogram("ccd_wal_fsync_seconds", "WAL group-commit fsync latency.", "", d.FsyncLatency)
		p.histogram("ccd_wal_group_commit_batch", "Records made durable per fsync.", "",
			d.GroupCommitBatch.Buckets, d.GroupCommitBatch.Count,
			d.GroupCommitBatch.Mean*float64(d.GroupCommitBatch.Count), 1)
		p.counter("ccd_wal_rollbacks_total", "Failed group-commit rollbacks.", d.Rollbacks)
		p.counter("ccd_wal_condemned_records_total", "Appended records condemned by rollbacks.", d.CondemnedRecords)
		p.latencyHistogram("ccd_snapshot_write_seconds", "Snapshot write duration.", "", d.SnapshotWrite)
		p.gauge("ccd_restore_seconds", "Boot-time snapshot restore + WAL replay wall time.", float64(d.RestoreUs)/1e6)
		p.gauge("ccd_wal_fsync_recent_p99_seconds", "Rolling-window fsync p99 (the backpressure signal; recovers, unlike the cumulative histogram).", float64(d.RecentFsyncP99Us)/1e6)
		p.counter("ccd_ingest_backpressure_delays_total", "Ingest acks slowed by durability backpressure.", d.BackpressureDelays)
		p.counterf("ccd_ingest_backpressure_delay_seconds_total", "Total ack delay injected by backpressure.", float64(d.BackpressureDelayUs)/1e6)
		engaged := 0.0
		if d.BackpressureEngaged {
			engaged = 1
		}
		p.gauge("ccd_ingest_backpressure_engaged", "1 while a freshly arriving ingest ack would be slowed.", engaged)
		ready := 0.0
		if d.Ready {
			ready = 1
		}
		p.gauge("ccd_ready", "1 when the store is serving and durable, 0 during replay or rollback.", ready)
	}

	// Remote fanout (router mode). Zero-valued on single-process and shard
	// nodes — the families render on every role so dashboards and the docs
	// table keep one schema.
	var rstats remote.Stats
	var fanoutLatency service.LatencyStats
	if s.router != nil {
		rstats = s.router.Stats()
		fanoutLatency = latencyStatsOf(s.router.FanoutHist())
	}
	p.counter("ccd_remote_fanouts_total", "Match queries fanned out to remote shard nodes.", rstats.Fanouts)
	p.latencyHistogram("ccd_remote_fanout_seconds", "End-to-end remote fanout latency (all waves, merged).", "", fanoutLatency)
	p.header("ccd_remote_shard_errors_total", "Failed requests per remote shard.", "counter")
	for i, n := range rstats.ShardErrors {
		p.metric("ccd_remote_shard_errors_total", label("shard", strconv.Itoa(i)), float64(n))
	}
	p.counter("ccd_remote_hedged_reads_total", "Queries raced against a replica after the shard's rolling p99 crossed the hedge threshold.", rstats.Hedged)
	p.counter("ccd_remote_partial_responses_total", "Degraded responses missing at least one partition.", rstats.Partials)
	p.counter("ccd_remote_bound_ship_savings_total", "Candidates remote shards pruned thanks to the shipped admission bound.", rstats.BoundShipSavings)

	// Deadline budget spine + quality-degradation ladder. Like the remote
	// families these render zero-valued on every role, so a fleet dashboard
	// can sum ccd_deadline_shipped_total over shard nodes without caring
	// which nodes ever received a shipped budget.
	dg := snap.Degrade
	p.gauge("ccd_degrade_tier", "Current quality-degradation tier (0 = full quality).", float64(dg.Tier))
	p.counter("ccd_degrade_tier_entered_total", "Degradation tier escalations since boot.", dg.TierEntered)
	p.counter("ccd_degrade_limit_halved_total", "Match requests served with a tier-1 halved effective limit.", dg.LimitHalved)
	p.counter("ccd_degrade_eta_raised_total", "Scans run with the tier-2 raised pre-filter bound.", dg.EtaRaised)
	p.counter("ccd_degrade_clusters_stale_total", "Cluster views served from the tier-3 stale snapshot.", dg.ClustersStale)
	dl := snap.Deadline
	p.counter("ccd_deadline_budget_requests_total", "Requests that declared a deadline budget.", dl.BudgetRequests)
	p.counter("ccd_deadline_expired_total", "Budgets that expired mid-request and were answered with a degraded partial.", dl.Expired)
	p.counter("ccd_deadline_shipped_total", "Shard requests that arrived with a router-shipped remaining budget.", dl.Shipped)

	// Self-join study funnel.
	sj := snap.SelfJoin
	p.counter("ccd_study_started_total", "Corpus-wide clone studies started.", sj.Started)
	p.counter("ccd_study_completed_total", "Studies completed.", sj.Completed)
	p.counter("ccd_study_cancelled_total", "Studies cancelled by the client.", sj.Cancelled)
	p.counter("ccd_study_failed_total", "Studies aborted by backend errors.", sj.Failed)
	p.counter("ccd_study_matches_total", "Clone pairs found across studies.", sj.Matches)

	// Caches.
	caches := []struct {
		name  string
		stats service.CacheStats
	}{
		{"report", snap.ReportCache},
		{"fingerprint", snap.FingerprintCache},
	}
	p.header("ccd_cache_hits_total", "Cache hits per layer.", "counter")
	for _, c := range caches {
		p.metric("ccd_cache_hits_total", label("cache", c.name), float64(c.stats.Hits))
	}
	p.header("ccd_cache_misses_total", "Cache misses per layer.", "counter")
	for _, c := range caches {
		p.metric("ccd_cache_misses_total", label("cache", c.name), float64(c.stats.Misses))
	}

	// Backends.
	backends := make([]string, 0, len(snap.Backends))
	for name := range snap.Backends {
		backends = append(backends, name)
	}
	sort.Strings(backends)
	p.header("ccd_backend_size", "Documents per similarity backend.", "gauge")
	for _, name := range backends {
		p.metric("ccd_backend_size", label("backend", name), float64(snap.Backends[name].Size))
	}

	// HTTP per-endpoint stats.
	patterns := make([]string, 0, len(s.endpoints))
	for pat := range s.endpoints {
		patterns = append(patterns, pat)
	}
	sort.Strings(patterns)
	p.header("ccd_http_requests_total", "Requests per route and status class.", "counter")
	for _, pat := range patterns {
		st := s.endpoints[pat]
		for i := range st.classes {
			if n := st.classes[i].Load(); n > 0 {
				p.metric("ccd_http_requests_total",
					label("endpoint", pat)+","+label("class", statusClasses[i]), float64(n))
			}
		}
	}
	if len(patterns) > 0 {
		p.header("ccd_http_request_duration_seconds", "Request duration per route.", "histogram")
		for _, pat := range patterns {
			ls := latencyStatsOf(&s.endpoints[pat].latency)
			p.histogramSeries("ccd_http_request_duration_seconds", label("endpoint", pat),
				ls.Buckets, ls.Count, ls.TotalSec, 1e-6)
		}
	}

	// Trace recorder.
	rs := s.recorder.Stats()
	p.counter("ccd_traces_recorded_total", "Traces recorded.", rs.Recorded)
	p.counter("ccd_traces_errored_total", "Errored traces recorded.", rs.Errored)

	p.gauge("ccd_uptime_seconds", "Process uptime.", uptimeSec)
	return p.err
}
