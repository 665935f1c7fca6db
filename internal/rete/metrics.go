package rete

import "pdps/internal/obs"

// netMetrics caches the network's obs handles. All nil-safe through
// the Network helpers: an unwired network (SetMetrics never called)
// pays one nil check per activation.
type netMetrics struct {
	// probes counts activations answered from a hash index; bucket
	// records the size of the probed bucket (the work an activation
	// actually did).
	probes *obs.Counter
	bucket *obs.Histogram
	// scans counts activations that fell back to a linear scan (the
	// node has no equality test), and scanned the candidates examined.
	scans   *obs.Counter
	scanned *obs.Counter
	// sharedBeta and planCost gauge the compiled network (beta levels
	// referenced by more than one rule, and the summed estimated plan
	// cost).
	sharedBeta *obs.Gauge
	planCost   *obs.Gauge
	// alphaProbes counts hash probes on the alpha assert/retract path
	// (one per routed attribute a WME carries); alphaTests counts
	// residual discrimination tests evaluated — with cross-rule
	// factoring each distinct test fires once per WME regardless of
	// how many rules share it. sharedAlpha gauges the discrimination
	// nodes on more than one pattern's path.
	alphaProbes *obs.Counter
	alphaTests  *obs.Counter
	sharedAlpha *obs.Gauge
}

// SetMetrics wires the network's index/scan counters into the
// registry. Call before inserting WMEs to observe the initial load.
func (n *Network) SetMetrics(reg *obs.Registry) {
	n.met = &netMetrics{
		probes:     reg.Counter("rete_index_probes_total"),
		bucket:     reg.Histogram("rete_index_bucket_size", "candidates"),
		scans:      reg.Counter("rete_index_scans_total"),
		scanned:    reg.Counter("rete_scan_candidates_total"),
		sharedBeta: reg.Gauge("rete_shared_beta"),
		planCost:   reg.Gauge("rete_plan_cost"),

		alphaProbes: reg.Counter("rete_alpha_probes_total"),
		alphaTests:  reg.Counter("rete_alpha_tests_evaluated_total"),
		sharedAlpha: reg.Gauge("rete_alpha_shared"),
	}
	n.updatePlanGauges()
}

// metProbe records an indexed activation and the size of the bucket
// it probed.
func (n *Network) metProbe(bucketLen int) {
	if n.met != nil {
		n.met.probes.Inc()
		n.met.bucket.Observe(int64(bucketLen))
	}
}

// metScan is metProbe's linear-scan counterpart.
func (n *Network) metScan(candidates int) {
	if n.met != nil {
		n.met.scans.Inc()
		n.met.scanned.Add(int64(candidates))
	}
}

// metAlphaProbe records one hash probe on the discrimination
// network's routing layer; metAlphaTest one residual test evaluation.
func (n *Network) metAlphaProbe() {
	if n.met != nil {
		n.met.alphaProbes.Inc()
	}
}

func (n *Network) metAlphaTest() {
	if n.met != nil {
		n.met.alphaTests.Inc()
	}
}
