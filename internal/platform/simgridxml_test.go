package platform

import (
	"strings"
	"testing"
)

const sampleXML = `<?xml version='1.0'?>
<platform version="4.1">
  <zone id="grid" routing="Full">
    <zone id="site1" routing="Full">
      <cluster id="adonis" prefix="adonis-" suffix="" radical="1-11"
               speed="8Gf" bw="125MBps" lat="50us"
               bb_bw="2500MBps" bb_lat="20us"/>
      <cluster id="griffon" prefix="griffon-" suffix="" radical="1-11"
               speed="8Gf" bw="1Gbps" lat="50us"/>
    </zone>
    <zone id="site2" routing="Full">
      <cluster id="gdx" prefix="gdx-" suffix="" radical="0-9,20"
               speed="4800Mf" bw="125MBps" lat="50us"/>
    </zone>
  </zone>
</platform>`

func TestFromSimGridXML(t *testing.T) {
	p, err := FromSimGridXML(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != "grid" {
		t.Errorf("root = %q", p.Root)
	}
	if got := len(p.Sites()); got != 2 {
		t.Fatalf("sites = %d, want 2", got)
	}
	if got := p.NumHosts(); got != 11+11+11 {
		t.Errorf("hosts = %d, want 33", got)
	}
	// Host parameters survive unit parsing.
	h := p.Host("adonis-1")
	if h == nil || h.Power != 8e9 {
		t.Errorf("adonis-1 = %+v", h)
	}
	if got := p.Host("gdx-1").Power; got != 4.8e9 {
		t.Errorf("gdx power = %g", got)
	}
	if got := p.Link("lnk:adonis-1").Bandwidth; got != 125e6 {
		t.Errorf("adonis host link bw = %g", got)
	}
	// 1Gbps (bits) == 125e6 bytes/s.
	if got := p.Link("lnk:griffon-1").Bandwidth; got != 1e9/8 {
		t.Errorf("griffon host link bw = %g", got)
	}
	if got := p.Link("lnk:adonis-1").Latency; got < 49.9e-6 || got > 50.1e-6 {
		t.Errorf("latency = %g", got)
	}
	if got := p.Link("bb:adonis").Bandwidth; got != 2500e6 {
		t.Errorf("backbone bw = %g", got)
	}
	// Default backbone: 10x host links.
	if got := p.Link("bb:griffon").Bandwidth; got != 10*1e9/8 {
		t.Errorf("default backbone bw = %g", got)
	}
	// Routing works across the parsed hierarchy.
	if _, err := p.Route("adonis-1", "gdx-5"); err != nil {
		t.Errorf("route failed: %v", err)
	}
}

func TestFromSimGridXMLRootClusters(t *testing.T) {
	xmlText := `<platform version="4.1"><zone id="as0" routing="Full">
		<cluster id="c" prefix="c-" suffix="" radical="0-3" speed="1Gf" bw="125MBps" lat="0"/>
	</zone></platform>`
	p, err := FromSimGridXML(strings.NewReader(xmlText))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumHosts() != 4 {
		t.Errorf("hosts = %d", p.NumHosts())
	}
	if got := len(p.Sites()); got != 1 {
		t.Errorf("implicit sites = %d", got)
	}
}

func TestFromSimGridXMLLegacyAS(t *testing.T) {
	xmlText := `<platform version="3"><AS id="as0" routing="Full">
		<cluster id="c" prefix="c-" suffix="" radical="0-1" speed="1Gf" bw="125MBps" lat="0"/>
	</AS></platform>`
	p, err := FromSimGridXML(strings.NewReader(xmlText))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumHosts() != 2 {
		t.Errorf("hosts = %d", p.NumHosts())
	}
}

func TestFromSimGridXMLErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":       "nope",
		"no zone":       `<platform version="4.1"></platform>`,
		"no clusters":   `<platform version="4.1"><zone id="g"><zone id="s"/></zone></platform>`,
		"bad radical":   `<platform><zone id="g"><cluster id="c" radical="9-1" speed="1Gf" bw="1Bps" lat="0"/></zone></platform>`,
		"no radical":    `<platform><zone id="g"><cluster id="c" speed="1Gf" bw="1Bps" lat="0"/></zone></platform>`,
		"bad speed":     `<platform><zone id="g"><cluster id="c" radical="0-1" speed="fast" bw="1Bps" lat="0"/></zone></platform>`,
		"bad bw":        `<platform><zone id="g"><cluster id="c" radical="0-1" speed="1Gf" bw="1parsec" lat="0"/></zone></platform>`,
		"bad lat":       `<platform><zone id="g"><cluster id="c" radical="0-1" speed="1Gf" bw="1Bps" lat="1year"/></zone></platform>`,
		"cluster no id": `<platform><zone id="g"><cluster radical="0-1" speed="1Gf" bw="1Bps" lat="0"/></zone></platform>`,
		"site no id":    `<platform><zone id="g"><zone><cluster id="c" radical="0-1" speed="1Gf" bw="1Bps" lat="0"/></zone></zone></platform>`,
		"too deep":      `<platform><zone id="g"><zone id="s"><zone id="x"/></zone></zone></platform>`,
		"dup cluster":   `<platform><zone id="g"><cluster id="c" radical="0-1" speed="1Gf" bw="1Bps" lat="0"/><cluster id="c" radical="0-1" speed="1Gf" bw="1Bps" lat="0"/></zone></platform>`,
		"dup site":      `<platform><zone id="g"><zone id="s"><cluster id="c" radical="0-1" speed="1Gf" bw="1Bps" lat="0"/></zone><zone id="s"/></zone></platform>`,
		"site is root":  `<platform><zone id="g"><zone id="g"><cluster id="c" radical="0-1" speed="1Gf" bw="1Bps" lat="0"/></zone></zone></platform>`,
		"cluster=site":  `<platform><zone id="g"><zone id="s"><cluster id="s" radical="0-1" speed="1Gf" bw="1Bps" lat="0"/></zone></zone></platform>`,
		"zero bw":       `<platform><zone id="g"><cluster id="c" radical="0-1" speed="1Gf" bw="0Bps" lat="0"/></zone></platform>`,
		"negative bb":   `<platform><zone id="g"><cluster id="c" radical="0-1" speed="1Gf" bw="1Bps" bb_bw="-1Bps" lat="0"/></zone></platform>`,
		"infinite bw":   `<platform><zone id="g"><cluster id="c" radical="0-1" speed="1Gf" bw="1e308GBps" lat="0"/></zone></platform>`,
		"huge radical":  `<platform><zone id="g"><cluster id="c" radical="0-100000000" speed="1Gf" bw="1Bps" lat="0"/></zone></platform>`,
		// Each cluster fits under the cap; together they do not.
		"too many hosts": `<platform><zone id="g">
			<cluster id="a" radical="0-600000" speed="1Gf" bw="1Bps" lat="0"/>
			<cluster id="b" radical="0-600000" speed="1Gf" bw="1Bps" lat="0"/></zone></platform>`,
	}
	for name, text := range cases {
		if _, err := FromSimGridXML(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRadicalCount(t *testing.T) {
	cases := map[string]int{
		"0-99":      100,
		"1-11":      11,
		"5":         1,
		"0-1,5,7":   4,
		"1-2, 4-5":  4,
		"0-1048575": maxHosts,
	}
	for radical, want := range cases {
		got, err := radicalCount(radical)
		if err != nil || got != want {
			t.Errorf("radicalCount(%q) = %d, %v; want %d", radical, got, err, want)
		}
	}
	for _, bad := range []string{"", "a-b", "3-", "x",
		"0-9223372036854775807", // the count overflows int
		"0-100000000",           // 10⁸ hosts
		"0-1048576",             // one past the cap
		"0-1048575,7",           // the parts together pass the cap
	} {
		if _, err := radicalCount(bad); err == nil {
			t.Errorf("radicalCount(%q) accepted", bad)
		}
	}
}

func TestUnitParsers(t *testing.T) {
	speed := map[string]float64{"1Gf": 1e9, "950Mf": 9.5e8, "2.5kf": 2500, "100": 100, "1e9f": 1e9}
	for in, want := range speed {
		got, err := ParseSpeed(in)
		if err != nil || got != want {
			t.Errorf("ParseSpeed(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	bw := map[string]float64{"125MBps": 125e6, "1GBps": 1e9, "1Gbps": 1.25e8, "8bps": 1, "1000": 1000}
	for in, want := range bw {
		got, err := ParseBandwidth(in)
		if err != nil || got != want {
			t.Errorf("ParseBandwidth(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	lat := map[string]float64{"50us": 50e-6, "1ms": 1e-3, "2s": 2, "0": 0, "": 0}
	for in, want := range lat {
		got, err := ParseLatency(in)
		if err != nil || got < want-1e-12 || got > want+1e-12 {
			t.Errorf("ParseLatency(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	if _, err := ParseSpeed(""); err == nil {
		t.Error("empty speed accepted")
	}
}

// FromSimGridXML reads untrusted files: whatever the input, it must not
// panic, and a platform it accepts stays under the host cap.
func FuzzSimGridXML(f *testing.F) {
	f.Add(sampleXML)
	f.Fuzz(func(t *testing.T, text string) {
		p, err := FromSimGridXML(strings.NewReader(text))
		if err != nil {
			return
		}
		if n := p.NumHosts(); n < 1 || n > maxHosts {
			t.Fatalf("accepted a platform of %d hosts", n)
		}
	})
}
