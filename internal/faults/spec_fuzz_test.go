package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSpec: -fault-spec is operator-typed text. Whatever it holds,
// ParseSpec never panics; what it accepts has every probability in
// [0, 1], no negative byte gap, and a stream delay only with a positive
// stall, and renders (String) to text that parses back to an equal Spec,
// so a plan printed in a report can be fed to the next run.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"drop:p=0.1;dup:p=0.1;corrupt:p=0.1", // cmd/accturbo-defend/main_test.go
		"drop:p=0.01;dup:p=0.005;corrupt:p=0.01;stall:at=2s,for=3s",
		"drop:p=0.01;stall:at=5s,for=2s",
		"flap:first=12s,down=250ms,period=20s,count=4;drop:p=0.01;dup:p=0.005;corrupt:p=0.01;stall:at=15s,for=3s",
		"stall:at=3s,for=1s;stall:at=1s,for=1s;stall:at=1s,for=2s",
		"flap:down=2s,period=1s,count=3",
		"drop:p=NaN",
		"drop:p=1e-320;dup:p=-0",
		"flap:down=2562047h47m16.854775807s, count=1 ; ;drop:",
		"stream:corrupt=4096,reset=32768,delay=8192,for=5ms", // internal/manifest's plan recipe
		"stream:delay=1,for=1ns;stream:reset=9223372036854775807",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			if !reflect.DeepEqual(spec, Spec{}) {
				t.Fatalf("an error came with a partial spec: %+v", spec)
			}
			return
		}
		for _, p := range []float64{spec.DropP, spec.DupP, spec.CorruptP} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%q: accepted probability %v", in, p)
			}
		}
		for _, fl := range spec.Flaps {
			if fl.First < 0 || fl.Len <= 0 || fl.Period < 0 || fl.Count < 1 {
				t.Fatalf("%q: accepted flap %+v", in, fl)
			}
		}
		for i, w := range spec.Stalls {
			if w.At < 0 || w.For <= 0 || (i > 0 && w.At < spec.Stalls[i-1].At) {
				t.Fatalf("%q: accepted stalls %+v", in, spec.Stalls)
			}
		}
		if st := spec.Stream; st.CorruptEvery < 0 || st.ResetEvery < 0 || st.DelayEvery < 0 ||
			(st.DelayEvery > 0) != (st.DelayFor > 0) {
			t.Fatalf("%q: accepted stream %+v", in, st)
		}
		again, err := ParseSpec(spec.String())
		if err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("%q renders as %q, which parses to %+v (%v), not %+v", in, spec.String(), again, err, spec)
		}
	})
}
