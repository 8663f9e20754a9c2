package main

import "sort"

// layerMetric names one per-layer metric and its unit; the list is the
// per_layer section of BENCHMARK.json.
type layerMetric struct{ name, unit string }

var layerNames = []layerMetric{
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"error_ratio", "ratio"},
	{"wrong_answers", "count"},
	{"p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"server.wait_p50_ms", "ms"},
	{"server.self_p50_ms", "ms"},
	{"server.multipart_p50_ms", "ms"},
	{"server.throttled", "count"},
	{"server.bytes_in_per_op", "B/op"},
	{"server.bytes_out_per_op", "B/op"},
	{"imageio.decode_p50_ms", "ms"},
	{"imageio.decodes_per_op", "1/op"},
	{"imageio.encode_p50_ms", "ms"},
	{"refstore.get_p50_us", "us"},
	{"refstore.hit_ratio", "ratio"},
	{"refstore.decodes", "count"},
	{"refstore.resident_mb", "MB"},
	{"sysrle.diff_p50_ms", "ms"},
	{"sysrle.ns_per_row", "ns/row"},
	{"sysrle.iterations_per_op", "1/op"},
	{"sysrle.cells_per_op", "1/op"},
	{"planner.packed_row_share", "ratio"},
	{"inspect.compare_p50_ms", "ms"},
	{"inspect.defects_per_scan", "1/scan"},
	{"jobs.queue_depth_max", "count"},
	{"jobs.workers_busy_mean", "count"},
	{"jobs.retries", "count"},
	{"jobs.polls_per_job", "1/job"},
	{"wal.append_p50_ms", "ms"},
	{"wal.syncs_per_scan", "1/scan"},
	{"wal.bytes_per_scan", "B/scan"},
	{"store.puts_per_op", "1/op"},
	{"store.bytes_per_op", "B/op"},
	{"auditlog.verdicts_per_scan", "1/scan"},
	{"auditlog.batches", "count"},
	{"cluster.handler_p50_ms", "ms"},
	{"cluster.handler_p99_ms", "ms"},
	{"cluster.self_p50_ms", "ms"},
	{"cluster.codec_p50_ms", "ms"},
	{"cluster.route_hit_ratio", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.write_fanout", "1/write"},
	{"apiclient.peer_rtt_p50_ms", "ms"},
	{"apiclient.peer_rtt_p99_ms", "ms"},
	{"apiclient.peer_calls_per_op", "1/op"},
	{"apiclient.conn_reuse_ratio", "ratio"},
}

// traceInputs is what the per-layer metrics are derived from.
type traceInputs struct {
	spans            []span
	untraced, traced *phase
	nodes0, nodes1   snapshot // node registries before and after the traced phase
	coord0, coord1   snapshot
	queueDepth, busy []float64 // jobs gauges sampled over the traced phase
	replayed         int
}

// layerMetrics derives the per-layer metrics; a layer the workload does
// not exercise reports 0. It also returns the blocking-path accounting
// of the top handler.
func layerMetrics(in traceInputs) (map[string]float64, map[string]any) {
	m := map[string]float64{}
	byID := map[uint64]span{}
	kids := map[uint64][]span{}
	byName := map[string][]span{}
	for _, s := range in.spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	durs := func(name string, scale float64) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, s.ms()*scale)
		}
		return out
	}
	primary := map[string]sample{} // the traced ops, by request id
	var tr tally
	tr.add(in.traced.samples)
	var jobs, polls, defects, writes float64
	for _, s := range in.traced.samples {
		primary[s.rid] = s
		if s.op.kind == opJob && s.res.out == succeeded {
			jobs++
			polls += float64(s.res.polls)
			defects += float64(s.res.defects)
		}
		if s.op.kind == opWrite {
			writes++
		}
	}
	units := float64(tr.units)
	scans := units * boolf(jobs > 0)
	cluster := len(byName["cluster.handler"]) > 0

	// The generator's lateness and the cost of tracing.
	var all tally
	all.add(in.untraced.samples)
	all.add(in.traced.samples)
	var late, lat0, lat1, readLat, writeLat []float64
	for _, s := range in.untraced.samples {
		late = append(late, s.lateMs())
		lat0 = append(lat0, s.latencyMs())
		if s.op.kind == opWrite {
			writeLat = append(writeLat, s.latencyMs())
		} else {
			readLat = append(readLat, s.latencyMs())
		}
	}
	for _, s := range in.traced.samples {
		lat1 = append(lat1, s.latencyMs())
	}
	p50u := percentile(lat0, 0.5)
	m["gen.late_p99_ms"] = percentile(late, 0.99)
	m["trace.overhead_pct"] = 100 * ratio(percentile(lat1, 0.5)-p50u, p50u)
	m["error_ratio"] = ratio(float64(all.bad()), float64(all.attempted))
	m["wrong_answers"] = float64(all.wrong)
	// The untraced tail, and reference writes: only cluster-rw's stream
	// has them.
	m["p99_ms"] = percentile(readLat, 0.99)
	m["write_p50_ms"] = percentile(writeLat, 0.5)

	// server: the handlers of the processes that run /v1 themselves.
	// Their wait is the parent span (the client's request, or the
	// coordinator's peer call) minus the handler; their self time is
	// the handler minus the steps replayed under it.
	var hd, wait, self []float64
	for _, s := range byName["server.handler"] {
		var parent float64
		if cluster {
			p, ok := byID[s.Parent]
			if !ok {
				continue
			}
			parent = p.ms()
		} else {
			c, ok := primary[s.Req]
			if !ok {
				continue
			}
			parent = ms(c.res.answered.Sub(c.res.sent))
		}
		hd = append(hd, s.ms())
		wait = append(wait, parent-s.ms())
		if ks := kids[s.ID]; len(ks) > 0 {
			self = append(self, s.ms()-blocking(ks))
		}
	}
	m["server.handler_p50_ms"] = percentile(hd, 0.5)
	m["server.handler_p99_ms"] = percentile(hd, 0.99)
	m["server.wait_p50_ms"] = percentile(wait, 0.5)
	m["server.self_p50_ms"] = percentile(self, 0.5)
	m["server.multipart_p50_ms"] = percentile(durs("server.multipart", 1), 0.5)
	m["server.throttled"] = in.nodes1.delta(in.nodes0, "sysrle_http_throttled_total")
	m["server.bytes_in_per_op"] = ratio(in.nodes1.delta(in.nodes0, "sysrle_http_request_bytes_total"), units)
	m["server.bytes_out_per_op"] = ratio(in.nodes1.delta(in.nodes0, "sysrle_http_response_bytes_total"), units)

	// imageio, refstore, sysrle and inspect: times from the replay,
	// counts from the registries.
	m["imageio.decode_p50_ms"] = percentile(durs("imageio.decode", 1), 0.5)
	m["imageio.decodes_per_op"] = ratio(float64(len(byName["imageio.decode"])+len(byName["cluster.decode"])), float64(in.replayed))
	m["imageio.encode_p50_ms"] = percentile(durs("imageio.encode", 1), 0.5)
	m["refstore.get_p50_us"] = percentile(durs("refstore.get", 1000), 0.5)
	hits := in.nodes1.delta(in.nodes0, "sysrle_refstore_hits_total")
	m["refstore.hit_ratio"] = ratio(hits, hits+in.nodes1.delta(in.nodes0, "sysrle_refstore_misses_total"))
	m["refstore.decodes"] = in.nodes1.vals["sysrle_refstore_decodes_total"]
	m["refstore.resident_mb"] = in.nodes1.vals["sysrle_refstore_resident_bytes"] / (1 << 20)
	var nsRow, iters, cells []float64
	for _, s := range byName["sysrle.diff"] {
		nsRow = append(nsRow, ratio(float64(s.End-s.Start), float64(s.Rows)))
		iters = append(iters, float64(s.Iterations))
		cells = append(cells, float64(s.Cells))
	}
	m["sysrle.diff_p50_ms"] = percentile(durs("sysrle.diff", 1), 0.5)
	m["sysrle.ns_per_row"] = percentile(nsRow, 0.5)
	m["sysrle.iterations_per_op"] = mean(iters)
	m["sysrle.cells_per_op"] = mean(cells)
	packed := in.nodes1.delta(in.nodes0, "planner_rows_packed_total")
	m["planner.packed_row_share"] = ratio(packed, packed+in.nodes1.delta(in.nodes0, "planner_rows_rle_total"))
	m["inspect.compare_p50_ms"] = percentile(durs("inspect.compare", 1), 0.5)
	m["inspect.defects_per_scan"] = ratio(defects, scans)

	// jobs, wal, store and auditlog: the durable batch path.
	m["jobs.queue_depth_max"] = percentile(in.queueDepth, 1)
	m["jobs.workers_busy_mean"] = mean(in.busy)
	m["jobs.retries"] = in.nodes1.delta(in.nodes0, "sysrle_jobs_scan_retries_total")
	m["jobs.polls_per_job"] = ratio(polls, jobs)
	m["wal.append_p50_ms"] = 1000 * in.nodes1.quantileDelta(in.nodes0, "sysrle_wal_append_seconds", 0.5)
	m["wal.syncs_per_scan"] = ratio(in.nodes1.delta(in.nodes0, "sysrle_wal_syncs_total"), scans)
	m["wal.bytes_per_scan"] = ratio(in.nodes1.delta(in.nodes0, "sysrle_wal_bytes_total"), scans)
	m["store.puts_per_op"] = ratio(in.nodes1.delta(in.nodes0, "sysrle_store_puts_total"), units)
	m["store.bytes_per_op"] = ratio(in.nodes1.delta(in.nodes0, "sysrle_store_bytes"), units)
	m["auditlog.verdicts_per_scan"] = ratio(in.nodes1.delta(in.nodes0, "sysrle_audit_verdicts_total"), scans)
	m["auditlog.batches"] = in.nodes1.delta(in.nodes0, "sysrle_audit_batches_total")

	// cluster and apiclient: the coordinator's handlers and peer calls.
	var ch, cself, codec []float64
	var writeCalls float64
	for _, s := range byName["cluster.handler"] {
		c, ok := primary[s.Req]
		if !ok {
			continue
		}
		ch = append(ch, s.ms())
		var peers []span
		var codecMs float64
		replayed := false
		for _, k := range kids[s.ID] {
			switch k.Name {
			case "apiclient.peer":
				peers = append(peers, k)
			case "cluster.decode", "cluster.encode":
				codecMs += k.ms()
				replayed = true
			}
		}
		cself = append(cself, s.ms()-covered(peers))
		if replayed {
			codec = append(codec, codecMs)
		}
		if c.op.kind == opWrite {
			writeCalls += float64(len(peers))
		}
	}
	m["cluster.handler_p50_ms"] = percentile(ch, 0.5)
	m["cluster.handler_p99_ms"] = percentile(ch, 0.99)
	m["cluster.self_p50_ms"] = percentile(cself, 0.5)
	m["cluster.codec_p50_ms"] = percentile(codec, 0.5)
	routeHits := in.coord1.delta(in.coord0, "sysrle_cluster_ref_route_hits_total")
	m["cluster.route_hit_ratio"] = ratio(routeHits, routeHits+in.coord1.delta(in.coord0, "sysrle_cluster_ref_route_misses_total"))
	m["cluster.failovers"] = in.coord1.delta(in.coord0, "sysrle_cluster_failover_total")
	m["cluster.write_fanout"] = ratio(writeCalls, writes*boolf(cluster))
	var reused float64
	for _, p := range byName["apiclient.peer"] {
		if p.Reused {
			reused++
		}
	}
	peerCalls := float64(len(byName["apiclient.peer"]))
	m["apiclient.peer_rtt_p50_ms"] = percentile(durs("apiclient.peer", 1), 0.5)
	m["apiclient.peer_rtt_p99_ms"] = percentile(durs("apiclient.peer", 1), 0.99)
	m["apiclient.peer_calls_per_op"] = ratio(peerCalls, float64(len(ch)))
	m["apiclient.conn_reuse_ratio"] = ratio(reused, peerCalls)

	return m, accounting(byName, kids, cluster)
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// blocking sums the child spans on a handler's blocking path: every
// replayed step except a job's scans, which run after it answers.
func blocking(ks []span) float64 {
	var sum float64
	for _, k := range ks {
		if k.Name != "jobs.scan" {
			sum += k.ms()
		}
	}
	return sum
}

// covered is the time the spans cover, overlaps counted once.
func covered(spans []span) float64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total, start, end float64
	open := false
	for _, s := range spans {
		a, b := float64(s.Start), float64(s.End)
		switch {
		case !open:
			start, end, open = a, b, true
		case a > end:
			total += end - start
			start, end = a, b
		case b > end:
			end = b
		}
	}
	if open {
		total += end - start
	}
	return total / 1e6
}

// accounting sets the top handler's p50 beside the median per-request
// time of each step under it and of the remaining self time, so the
// blocking path can be read off one traced run.
func accounting(byName map[string][]span, kids map[uint64][]span, cluster bool) map[string]any {
	top := "server.handler"
	if cluster {
		top = "cluster.handler"
	}
	steps := map[string][]float64{}
	var hd []float64
	for _, h := range byName[top] {
		per := map[string]float64{}
		for _, k := range kids[h.ID] {
			if k.Name != "jobs.scan" {
				per[k.Name] += k.ms()
			}
		}
		if len(per) == 0 || (len(per) == 1 && per["apiclient.peer"] > 0) {
			continue // not replayed
		}
		hd = append(hd, h.ms())
		per["self"] = h.ms() - blocking(kids[h.ID])
		for name, v := range per {
			steps[name] = append(steps[name], v)
		}
	}
	parts := map[string]float64{}
	var sum float64
	for name, vs := range steps {
		parts[name] = percentile(vs, 0.5)
		sum += parts[name]
	}
	return map[string]any{
		"handler":        top,
		"handler_p50_ms": percentile(hd, 0.5),
		"steps_p50_ms":   parts,
		"steps_sum_ms":   sum,
		"requests":       len(hd),
	}
}
