package topology

import (
	"reflect"
	"testing"
)

// FuzzTopologySpec checks the grammar's canonical round trip: any spec that
// parses yields a validated topology whose Spec() rendering re-parses to the
// identical value. This is the same fixed-point property the fault-model
// fuzzer pins for internal/faults. A refused spec must be refused with the
// same text again.
func FuzzTopologySpec(f *testing.F) {
	f.Add(lineSpec)
	f.Add("ring:name=a")
	f.Add("ring:name=a,proto=8025,bw=4e6,n=10,spacing=50,delay=2,token=24,prop=0.67")
	f.Add("ring:name=a + ring:name=b + bridge:a=a,b=b,latency=100us,rate=1e6,buffer=4096")
	f.Add("ring:name=a + flow:name=x,src=a,period=1ms,bits=8")
	f.Add("ring:name=a+flow:src=a,period=2,bits=1e3+flow:src=a,period=3,bits=9")
	f.Add("ring:name=a,zz=1,aa=2,mm=3")
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := Parse(spec)
		if err != nil {
			// Unparsable input is fine; crashes, drift and a refusal
			// that changes its text are not.
			if _, again := Parse(spec); again == nil || again.Error() != err.Error() {
				t.Fatalf("Parse(%q) refused with %q, then with %v", spec, err, again)
			}
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned an invalid topology: %v", spec, err)
		}
		if c := topo.Canonicalize(); !reflect.DeepEqual(c, topo) {
			t.Fatalf("Parse(%q) returned a non-canonical topology:\n got  %+v\n want %+v", spec, topo, c)
		}
		rendered := topo.Spec()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Spec() of a valid topology does not re-parse:\n spec   %q\n render %q\n err    %v",
				spec, rendered, err)
		}
		if !reflect.DeepEqual(again, topo) {
			t.Fatalf("canonical round trip drift:\n spec   %q\n render %q\n first  %+v\n second %+v",
				spec, rendered, topo, again)
		}
	})
}
