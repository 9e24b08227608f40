package cluster

import (
	"bytes"
	"fmt"
	"math/bits"

	"accturbo/internal/frame"
)

// Marshal serializes the clusterer's complete learned state — flattened
// geometry, nominal value sets, per-cluster counters, UID allocator and
// packet count — into a deterministic little-endian byte stream. The
// stream opens with a configuration fingerprint so Unmarshal can refuse a
// snapshot taken under different cluster geometry. Two clusterers with
// equal observable state produce identical bytes (the order in which
// values were admitted is excluded: a set is written as its ascending
// values), which is what makes save → restore → save byte-identical.
//
// Checksums and format versioning live one layer up, in the core
// snapshot container: a cluster blob never travels alone.
//
// Only the deployed configuration has a serialized form; Marshal panics
// on a baseline clusterer, which callers rule out with Config.Deployed
// (Validate and Unmarshal return ErrBaselineSnapshot).
func (o *Online) Marshal() []byte {
	if o.baseline != nil {
		panic(ErrBaselineSnapshot)
	}
	var e frame.Enc
	o.encodeFingerprint(&e)
	e.U64(o.nextUID)
	e.U64(o.Observed)
	e.U32(uint32(len(o.clusters)))
	var bm []uint64 // one set's values as a bitmap, zero between uses
	for ci := range o.clusters {
		c := &o.clusters[ci]
		e.U64(c.uid)
		base := ci * o.nf
		for f := 0; f < o.nf; f++ {
			e.U32(o.min[base+f])
			e.U32(o.max[base+f])
		}
		e.U64(c.count)
		e.U64(c.packets)
		e.U64(c.bytes)
		e.U64(c.totalPackets)
		e.U64(c.benign)
		e.U64(c.malicious)
		for j, mf := range o.mt.feats {
			// The format carries the cardinality and then the length of
			// the value list, which for an exact set are one number.
			card := uint32(o.mt.cardinality(ci, j))
			e.U32(card)
			e.U32(card)
			words := int((mf.ncell + 63) / 64)
			if len(bm) < words {
				bm = make([]uint64, words)
			}
			set := bm[:words]
			o.mt.bitmap(ci, j, set)
			for i, w := range set {
				for ; w != 0; w &= w - 1 {
					e.U32(uint32(i)<<6 | uint32(bits.TrailingZeros64(w)))
				}
				set[i] = 0
			}
		}
	}
	return e.B
}

// Unmarshal replaces the clusterer's state with a Marshal snapshot. The
// receiver must have been constructed with the same configuration the
// snapshot was taken under (checked via the embedded fingerprint), and
// its subsequent observations are bit-identical to the original
// clusterer's.
//
// The stream is untrusted: it is walked once to validate it — every
// length against the bytes that remain, every value against its
// feature's space — and only then a second time to load it, so a
// rejected stream leaves the receiver exactly as it was and nothing is
// sized from a number on the wire.
func (o *Online) Unmarshal(data []byte) error {
	body, err := o.validated(data)
	if err != nil {
		return err
	}
	return o.decodeState(body, true)
}

// Validate reports whether Unmarshal would accept data, without
// touching the clusterer: a caller restoring several clusterers checks
// every stream before it loads the first.
func (o *Online) Validate(data []byte) error {
	_, err := o.validated(data)
	return err
}

// validated is Unmarshal's first walk: it returns the stream past its
// fingerprint once every length and value in it has been checked.
func (o *Online) validated(data []byte) ([]byte, error) {
	if o.baseline != nil {
		return nil, ErrBaselineSnapshot
	}
	var fp frame.Enc
	o.encodeFingerprint(&fp)
	if !bytes.HasPrefix(data, fp.B) {
		return nil, fmt.Errorf("cluster: snapshot fingerprint does not match this clusterer's configuration")
	}
	body := data[len(fp.B):]
	return body, o.decodeState(body, false)
}

// decodeState walks a Marshal stream past its fingerprint, checking it;
// with commit set it also replaces the clusterer's state with what it
// reads, which must only be asked of a stream that already passed.
func (o *Online) decodeState(body []byte, commit bool) error {
	d := frame.NewDec(body)
	nextUID := d.U64()
	observed := d.U64()
	k := int(d.U32()) // 0 once the stream is short, which Done reports
	if k > o.cfg.MaxClusters {
		return fmt.Errorf("cluster: snapshot has %d clusters, config allows %d", k, o.cfg.MaxClusters)
	}
	if commit {
		o.discard()
		o.clusters = o.clusters[:k]
		o.nextUID, o.Observed = nextUID, observed
	}
	for ci := 0; ci < k; ci++ {
		var c clusterState
		c.uid = d.U64()
		for f, feat := range o.feats {
			mn, mx := d.U32(), d.U32()
			if mn > mx || mx > feat.MaxValue() {
				return fmt.Errorf("cluster: snapshot cluster %d feature %d range [%d, %d] is not within [0, %d]", ci, f, mn, mx, feat.MaxValue())
			}
			if commit {
				o.setRange(ci, f, mn, mx)
			}
		}
		c.count = d.U64()
		c.packets = d.U64()
		c.bytes = d.U64()
		c.totalPackets = d.U64()
		c.benign = d.U64()
		c.malicious = d.U64()
		if commit {
			o.clusters[ci] = c
		}
		for j := range o.mt.feats {
			if err := o.decodeSet(&d, ci, j, commit); err != nil {
				return fmt.Errorf("cluster: snapshot cluster %d nominal set %d: %w", ci, j, err)
			}
		}
		if d.Err() != nil {
			break // short: Done reports it, and the rest would read as zeros
		}
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	return nil
}

// decodeSet checks one nominal set of the stream — ascending values, as
// many as the cardinality says; with commit set it also gives the set to
// slot ci, which must be empty. A short read is left latched in d for the
// caller.
func (o *Online) decodeSet(d *frame.Dec, ci, j int, commit bool) error {
	ncell := o.mt.feats[j].ncell
	card := uint64(d.U32())
	n := uint64(d.Count(4))
	if d.Err() != nil {
		return nil
	}
	if n != card {
		return fmt.Errorf("%d values for cardinality %d", n, card)
	}
	if n > ncell {
		return fmt.Errorf("%d values exceed the value space of %d", n, ncell)
	}
	prev := int64(-1)
	for i := uint64(0); i < n; i++ {
		v := d.U32()
		if int64(v) <= prev || uint64(v) >= ncell {
			return fmt.Errorf("value %d out of order or beyond the value space of %d", v, ncell)
		}
		prev = int64(v)
		if commit {
			o.mt.admit(ci, j, v)
		}
	}
	return nil
}

// encodeFingerprint appends the configuration facts the snapshot layout
// depends on. Any mismatch means the byte stream cannot be interpreted
// against the receiver (different feature count, value spaces) or would
// silently change behavior (slice initialisation). The distance, search,
// set-representation and normalisation fields are constant for every
// clusterer that has a snapshot (Config.Deployed), and the learning rate
// and Bloom geometry are constants; they stay so that the streams
// earlier versions wrote keep restoring.
func (o *Online) encodeFingerprint(e *frame.Enc) {
	e.U32(uint32(o.cfg.MaxClusters))
	e.U8(uint8(len(o.feats)))
	for _, f := range o.feats {
		e.U8(uint8(f))
	}
	e.U8(uint8(o.cfg.Distance))
	e.U8(uint8(o.cfg.Search))
	e.F64(learningRate)
	e.Bool(o.cfg.UseBloom)
	e.U64(bloomBits)
	e.U32(bloomHashes)
	e.Bool(o.cfg.Normalize)
	e.Bool(o.cfg.SliceInit)
}
