package topology

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

const lineSpec = "ring:name=shop,proto=8025mod,bw=4e6 + ring:name=office + " +
	"bridge:a=office,b=shop,latency=1ms + " +
	"flow:src=shop,dst=office,period=50ms,bits=4096 + flow:name=tick,src=office,period=10ms,bits=512"

func TestParseLineSpec(t *testing.T) {
	topo, err := Parse(lineSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 2 || len(topo.Bridges) != 1 || len(topo.Flows) != 2 {
		t.Fatalf("parsed %d rings, %d bridges, %d flows", len(topo.Nodes), len(topo.Bridges), len(topo.Flows))
	}
	shop := topo.Nodes[topo.NodeIndex("shop")]
	if shop.Protocol != Modified8025 || shop.Ring.BandwidthBPS != 4e6 {
		t.Errorf("shop = %+v", shop)
	}
	if shop.Ring.BitDelayPerStation != 4 || shop.Ring.TokenBits != 24 {
		t.Errorf("shop plant should default to the IEEE 802.5 preset: %+v", shop.Ring)
	}
	office := topo.Nodes[topo.NodeIndex("office")]
	if office.Protocol != FDDI || office.Ring.BandwidthBPS != 100e6 || office.Ring.TokenBits != 88 {
		t.Errorf("office should default to the 100 Mbps FDDI preset: %+v", office)
	}
	if topo.Bridges[0].A != "office" || topo.Bridges[0].B != "shop" || topo.Bridges[0].Latency != 1e-3 {
		t.Errorf("bridge = %+v", topo.Bridges[0])
	}
	// The unnamed flow was auto-named and flows are in canonical order.
	var names []string
	for _, f := range topo.Flows {
		names = append(names, f.Name)
	}
	if !reflect.DeepEqual(names, []string{"tick", "f1"}) {
		t.Errorf("flow names = %v", names)
	}
}

func TestParsePlantOverrides(t *testing.T) {
	topo, err := Parse("ring:name=r,proto=8025,bw=1e6,n=4,spacing=0,delay=0,token=4")
	if err != nil {
		t.Fatal(err)
	}
	r := topo.Nodes[0].Ring
	if r.Stations != 4 || r.SpacingMeters != 0 || r.BitDelayPerStation != 0 || r.TokenBits != 4 {
		t.Errorf("plant = %+v", r)
	}
	if r.PropagationFraction != 0.75 {
		t.Errorf("prop should keep the preset default, got %g", r.PropagationFraction)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, spec string
		want       error
	}{
		{"empty", "", ErrBadSpec},
		{"unknown kind", "loop:name=a", ErrBadSpec},
		{"missing name", "ring:proto=fddi", ErrBadSpec},
		{"bad proto", "ring:name=a,proto=atm", ErrBadSpec},
		{"unknown key", "ring:name=a,color=red", ErrBadSpec},
		{"bad number", "ring:name=a,bw=fast", ErrBadSpec},
		{"fractional n", "ring:name=a,n=2.5", ErrBadSpec},
		{"dup key", "ring:name=a,bw=1e6,bw=2e6", ErrBadSpec},
		{"bare pair", "ring:name", ErrBadSpec},
		{"bridge needs b", "ring:name=a + bridge:a=a", ErrBadSpec},
		{"flow needs period", "ring:name=a + flow:src=a,bits=8", ErrBadSpec},
		{"nan bw", "ring:name=a,bw=NaN", ErrBadTopology},
		{"unknown flow dst", "ring:name=a + flow:src=a,dst=b,period=1,bits=8", ErrUnknownRing},
		{"disconnected", "ring:name=a + ring:name=b", ErrDisconnected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.spec); !errors.Is(err, tc.want) {
				t.Errorf("Parse(%q) err = %v, want %v", tc.spec, err, tc.want)
			}
		})
	}
}

// TestParseNamesLeastUnknownKey checks that a clause with several unknown
// keys is refused naming the least of them, with the same text on every
// parse.
func TestParseNamesLeastUnknownKey(t *testing.T) {
	const spec = "ring:name=a,zz=1,aa=2,mm=3"
	const want = `topology: bad topology spec: unknown ring key "aa" (valid ring keys: name, proto, bw, n, spacing, delay, token, prop)`
	for i := 0; i < 100; i++ {
		if _, err := Parse(spec); err == nil || err.Error() != want {
			t.Fatalf("parse %d of %q: err = %v, want %s", i, spec, err, want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		lineSpec,
		"ring:name=solo,proto=8025,bw=4e6",
		"ring:name=a + ring:name=b,proto=8025mod,bw=16e6,n=10 + " +
			"bridge:a=a,b=b,latency=250us,rate=2e6,buffer=65536 + " +
			"flow:src=a,dst=b,period=0.1,bits=1024 + flow:src=b,period=5ms,bits=256",
		"ring:name=r,n=3,spacing=10,delay=1,token=16,prop=0.5",
	}
	for _, spec := range specs {
		topo, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		rendered := topo.Spec()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", rendered, err)
		}
		if !reflect.DeepEqual(again, topo) {
			t.Errorf("round trip drift:\n spec   %q\n render %q\n first  %+v\n second %+v",
				spec, rendered, topo, again)
		}
	}
}

func TestSpecOmitsDefaults(t *testing.T) {
	topo, err := Parse("ring:name=a,proto=fddi,bw=100e6,n=100 + ring:name=b + bridge:a=a,b=b")
	if err != nil {
		t.Fatal(err)
	}
	spec := topo.Spec()
	for _, forbidden := range []string{"proto=", "bw=", "n=", "latency="} {
		if strings.Contains(spec, forbidden) {
			t.Errorf("canonical spec %q should omit default %s", spec, forbidden)
		}
	}
}
