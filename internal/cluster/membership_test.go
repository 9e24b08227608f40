package cluster

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"accturbo/internal/packet"
)

// tableModel is the naive counterpart of memberTable: per cluster and
// nominal feature, a map of admitted values.
type tableModel struct {
	feats []packet.Feature // the nominal features, in order
	sets  [][]map[uint32]bool
}

func (m *tableModel) reset(clusters int) {
	m.sets = nil
	for c := 0; c < clusters; c++ {
		m.push()
	}
}

func (m *tableModel) push() {
	sets := make([]map[uint32]bool, len(m.feats))
	for j := range sets {
		sets[j] = map[uint32]bool{}
	}
	m.sets = append(m.sets, sets)
}

func (m *tableModel) clear(c int) {
	for j := range m.feats {
		m.sets[c][j] = map[uint32]bool{}
	}
}

func (m *tableModel) admit(c, j int, v uint32) { m.sets[c][j][v] = true }

// check compares every live slot of o's table with the model:
// cardinality, enumeration (ascending values) and membership as the
// per-packet gather reports it.
func (m *tableModel) check(t *testing.T, o *Online, r *rand.Rand, step int) {
	t.Helper()
	if len(o.Snapshot()) != len(m.sets) {
		t.Fatalf("step %d: %d clusters, model has %d", step, len(o.Snapshot()), len(m.sets))
	}
	snap := o.Snapshot()
	vals := make([]uint32, len(o.feats))
	for c := range m.sets {
		for j, mf := range o.mt.feats {
			if got, want := snap[c].NominalCardinality[mf.pos], len(m.sets[c][j]); got != want {
				t.Fatalf("step %d: cluster %d set %d cardinality %d, model %d", step, c, j, got, want)
			}
			bm := make([]uint64, (mf.ncell+63)/64)
			o.mt.bitmap(c, j, bm)
			var got, want []uint32
			for i, w := range bm {
				for ; w != 0; w &= w - 1 {
					got = append(got, uint32(i*64+bits.TrailingZeros64(w)))
				}
			}
			for v := range m.sets[c][j] {
				want = append(want, v)
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: cluster %d set %d enumerates %v, model %v", step, c, j, got, want)
			}
			// Probe members and random values through the gather.
			probes := []uint32{uint32(r.Intn(int(m.feats[j].MaxValue()) + 1))}
			for v := range m.sets[c][j] {
				if probes = append(probes, v); len(probes) > 4 {
					break
				}
			}
			for _, v := range probes {
				vals[mf.pos] = v
				o.mt.gather(vals, len(o.Snapshot()))
				if got, want := o.mt.misses(c, j) == 0, m.sets[c][j][v]; got != want {
					t.Fatalf("step %d: cluster %d set %d admits(%d) = %v, model %v", step, c, j, v, got, want)
				}
			}
		}
	}
}

// TestMemberTableMatchesModel drives the membership table through random
// admissions, reseeds and more seeded slots than MaxClusters (up to
// twenty, in a table of 32-bit cells) and holds it to the naive model
// after every step.
func TestMemberTableMatchesModel(t *testing.T) {
	feats := packet.FeatureSet{packet.FTTL, packet.FSrcPort, packet.FProtocol, packet.FLength, packet.FDstPort}
	cfg := DefaultConfig(6, feats)
	t.Run(comboName(cfg), func(t *testing.T) {
		r := rand.New(rand.NewSource(31))
		const slots = 20
		o := newOnline(cfg, slots)
		if o.mt.lw != 5 {
			t.Fatalf("cells are %d bits wide, want 32", 1<<o.mt.lw)
		}
		m := &tableModel{}
		for _, mf := range o.mt.feats {
			m.feats = append(m.feats, feats[mf.pos])
		}
		randVals := func() []uint32 {
			vals := make([]uint32, len(feats))
			for i, f := range feats {
				// A narrow band, so sets overlap across clusters.
				vals[i] = uint32(r.Intn(40)) * (f.MaxValue() / 64)
			}
			return vals
		}
		seed := func(c int, vals []uint32) {
			m.clear(c)
			for j, mf := range o.mt.feats {
				m.admit(c, j, vals[mf.pos])
			}
		}
		for step := 0; step < 1000; step++ {
			switch op := r.Intn(100); {
			case op < 80:
				vals := randVals()
				a := o.ObserveFeatures(vals, 64, false)
				if a.Created {
					m.push()
					seed(a.Cluster, vals)
				} else {
					for j, mf := range o.mt.feats {
						m.admit(a.Cluster, j, vals[mf.pos])
					}
				}
			case op >= 90 && op < 95:
				o.Reseed()
				m.reset(0)
			case op >= 97:
				n := 1 + r.Intn(slots)
				o.discard()
				m.reset(n)
				for c := 0; c < n; c++ {
					vals := randVals()
					o.newCluster(vals)
					seed(c, vals)
				}
			}
			m.check(t, o, r, step)
		}
	})
}
