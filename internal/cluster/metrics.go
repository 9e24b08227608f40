package cluster

import "accturbo/internal/packet"

// Eval accumulates clustering-quality metrics over a window of
// assignments, following §8.1 of the paper:
//
//   - Purity: label each cluster with its majority class, count the
//     packets matching their cluster's label, divide by total packets.
//   - Recall (benign): fraction of benign packets mapped into
//     majority-benign clusters. Symmetrically for malicious.
//
// Metrics are computed from (cluster, ground-truth label) pairs
// supplied by the evaluation harness; the clusterer itself never sees
// this accounting.
type Eval struct {
	benign    map[int]uint64
	malicious map[int]uint64
	totB      uint64
	totM      uint64
}

// NewEval returns an empty accumulator.
func NewEval() *Eval {
	return &Eval{benign: map[int]uint64{}, malicious: map[int]uint64{}}
}

// Observe records that a packet with the given ground-truth label was
// assigned to cluster id.
func (e *Eval) Observe(id int, label packet.Label) {
	if label == packet.Malicious {
		e.malicious[id]++
		e.totM++
	} else {
		e.benign[id]++
		e.totB++
	}
}

// Total returns the number of observed packets.
func (e *Eval) Total() uint64 { return e.totB + e.totM }

// Purity returns the clustering purity in [0, 1], or 0 for an empty
// window.
func (e *Eval) Purity() float64 {
	total := e.Total()
	if total == 0 {
		return 0
	}
	var match uint64
	for id := range e.clusters() {
		b, m := e.benign[id], e.malicious[id]
		if b >= m {
			match += b
		} else {
			match += m
		}
	}
	return float64(match) / float64(total)
}

// RecallBenign returns the fraction of benign packets that landed in
// majority-benign clusters (1 if no benign packets were observed).
func (e *Eval) RecallBenign() float64 {
	if e.totB == 0 {
		return 1
	}
	var hit uint64
	for id := range e.clusters() {
		b, m := e.benign[id], e.malicious[id]
		if b >= m {
			hit += b
		}
	}
	return float64(hit) / float64(e.totB)
}

// RecallMalicious returns the fraction of malicious packets that landed
// in majority-malicious clusters (1 if none were observed).
func (e *Eval) RecallMalicious() float64 {
	if e.totM == 0 {
		return 1
	}
	var hit uint64
	for id := range e.clusters() {
		b, m := e.benign[id], e.malicious[id]
		if m > b {
			hit += m
		}
	}
	return float64(hit) / float64(e.totM)
}

// clusters yields the union of cluster ids seen in the window.
func (e *Eval) clusters() map[int]struct{} {
	ids := make(map[int]struct{}, len(e.benign)+len(e.malicious))
	for id := range e.benign {
		ids[id] = struct{}{}
	}
	for id := range e.malicious {
		ids[id] = struct{}{}
	}
	return ids
}
