package cluster

// clusterCost returns delta(c), the cluster's size under the Manhattan
// cost: the sum of its per-feature widths, a point costing zero.
func (o *Online) clusterCost(ci int) float64 {
	sum := 0.0
	for i := 0; i < o.nf; i++ {
		sum += o.featWidth(ci, i) - 1
	}
	return sum
}

// featWidth is the per-feature cost of a cluster: range width + 1 for
// ordinal features (so a point has width 1), set cardinality for
// nominal ones.
func (o *Online) featWidth(ci, i int) float64 {
	if j := o.nomIdx[i]; j >= 0 {
		return float64(o.mt.cardinality(ci, j))
	}
	base := ci * o.nf
	return float64(o.max[base+i]-o.min[base+i]) + 1
}
