package platform

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// FromSimGridXML reads a platform description in SimGrid's XML format —
// the format the paper's experiments were themselves configured with —
// and builds the equivalent Platform. The supported subset is the
// cluster-based idiom SimGrid uses for Grid'5000-style machines:
//
//	<platform version="4.1">
//	  <zone id="grid" routing="Full">
//	    <zone id="site1" routing="Full">
//	      <cluster id="adonis" prefix="adonis-" suffix="" radical="1-11"
//	               speed="8Gf" bw="125MBps" lat="50us"
//	               bb_bw="1250MBps" bb_lat="20us"/>
//	    </zone>
//	  </zone>
//	</platform>
//
// Clusters may sit directly under the root zone (a single-site platform)
// or inside one level of site zones. Values use SimGrid unit suffixes
// (Gf, MBps, Gbps, us, ms, …). Attributes SimGrid defines but this model
// does not (loopback, sharing policies, …) are ignored.
func FromSimGridXML(r io.Reader) (*Platform, error) {
	var doc sgPlatform
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("platform: bad SimGrid XML: %w", err)
	}
	root := doc.Zone
	if root == nil {
		if doc.AS != nil { // SimGrid ≤ v3 spelling
			root = doc.AS
		} else {
			return nil, fmt.Errorf("platform: no <zone> under <platform>")
		}
	}
	name := root.ID
	if name == "" {
		name = "grid"
	}

	// Validate every site and cluster before building anything: the
	// constructors panic on duplicate zone names and nonpositive
	// bandwidths, and the host cap holds for the platform as a whole.
	type sgSite struct {
		id       string
		clusters []sgCluster
	}
	var sites []sgSite
	if len(root.Clusters) > 0 {
		// Clusters directly under the root live in an implicit site.
		sites = append(sites, sgSite{root.ID + "-site", root.Clusters})
	}
	for _, site := range root.Zones {
		if site.ID == "" {
			return nil, fmt.Errorf("platform: site zone without id")
		}
		if len(site.Zones) > 0 {
			return nil, fmt.Errorf("platform: zone %q: nesting deeper than grid>site>cluster is not supported", site.ID)
		}
		sites = append(sites, sgSite{site.ID, site.Clusters})
	}
	seen := map[string]bool{name: true}
	cfgs := make([][]ClusterConfig, len(sites))
	hosts := 0
	for i, site := range sites {
		if seen[site.id] {
			return nil, fmt.Errorf("platform: duplicate zone id %q", site.id)
		}
		seen[site.id] = true
		for _, c := range site.clusters {
			if c.ID == "" {
				return nil, fmt.Errorf("platform: cluster without id in site %q", site.id)
			}
			if seen[c.ID] {
				return nil, fmt.Errorf("platform: duplicate zone id %q", c.ID)
			}
			seen[c.ID] = true
			cfg, err := c.config()
			if err != nil {
				return nil, err
			}
			if hosts += cfg.Hosts; hosts > maxHosts {
				return nil, fmt.Errorf("platform: more than %d hosts", maxHosts)
			}
			cfgs[i] = append(cfgs[i], cfg)
		}
	}
	if hosts == 0 {
		return nil, fmt.Errorf("platform: no clusters found")
	}

	p := New(name)
	for i, site := range sites {
		p.AddSite(site.id, defaultSiteConfig())
		for j, c := range site.clusters {
			p.AddCluster(site.id, c.ID, cfgs[i][j])
		}
	}
	return p, nil
}

func defaultSiteConfig() SiteConfig {
	return SiteConfig{
		BackboneBandwidth: 10 * Gbps,
		BackboneLatency:   100e-6,
		UplinkBandwidth:   10 * Gbps,
		UplinkLatency:     5e-3,
	}
}

type sgPlatform struct {
	XMLName xml.Name `xml:"platform"`
	Zone    *sgZone  `xml:"zone"`
	AS      *sgZone  `xml:"AS"`
}

type sgZone struct {
	ID       string      `xml:"id,attr"`
	Zones    []sgZone    `xml:"zone"`
	Clusters []sgCluster `xml:"cluster"`
}

type sgCluster struct {
	ID      string `xml:"id,attr"`
	Prefix  string `xml:"prefix,attr"`
	Suffix  string `xml:"suffix,attr"`
	Radical string `xml:"radical,attr"`
	Speed   string `xml:"speed,attr"`
	BW      string `xml:"bw,attr"`
	Lat     string `xml:"lat,attr"`
	BBBW    string `xml:"bb_bw,attr"`
	BBLat   string `xml:"bb_lat,attr"`
}

// config converts the cluster element into a ClusterConfig.
func (c sgCluster) config() (ClusterConfig, error) {
	var cfg ClusterConfig
	n, err := radicalCount(c.Radical)
	if err != nil {
		return cfg, fmt.Errorf("platform: cluster %q: %w", c.ID, err)
	}
	cfg.Hosts = n
	if cfg.HostPower, err = ParseSpeed(c.Speed); err != nil {
		return cfg, fmt.Errorf("platform: cluster %q speed: %w", c.ID, err)
	}
	if cfg.HostLinkBandwidth, err = ParseBandwidth(c.BW); err != nil {
		return cfg, fmt.Errorf("platform: cluster %q bw: %w", c.ID, err)
	}
	if cfg.HostLinkLatency, err = ParseLatency(c.Lat); err != nil {
		return cfg, fmt.Errorf("platform: cluster %q lat: %w", c.ID, err)
	}
	// Backbone defaults to 10× the host links when unspecified.
	if c.BBBW == "" {
		cfg.BackboneBandwidth = 10 * cfg.HostLinkBandwidth
	} else if cfg.BackboneBandwidth, err = ParseBandwidth(c.BBBW); err != nil {
		return cfg, fmt.Errorf("platform: cluster %q bb_bw: %w", c.ID, err)
	}
	if c.BBLat == "" {
		cfg.BackboneLatency = cfg.HostLinkLatency
	} else if cfg.BackboneLatency, err = ParseLatency(c.BBLat); err != nil {
		return cfg, fmt.Errorf("platform: cluster %q bb_lat: %w", c.ID, err)
	}
	for _, bw := range []float64{cfg.HostLinkBandwidth, cfg.BackboneBandwidth} {
		if !(bw > 0 && bw <= math.MaxFloat64) { // rejects NaN and ±Inf too
			return cfg, fmt.Errorf("platform: cluster %q: bandwidth %g is not positive and finite", c.ID, bw)
		}
	}
	cfg.UplinkBandwidth = cfg.BackboneBandwidth
	cfg.UplinkLatency = cfg.BackboneLatency
	return cfg, nil
}

// maxHosts caps the hosts of a platform read from SimGrid XML. A radical
// is untrusted input: "0-100000000" would otherwise build 10⁸ hosts, and
// a range spanning the int domain overflows the count.
const maxHosts = 1 << 20

// radicalCount parses SimGrid's radical attribute ("0-99" or "1-11,13")
// into a host count of at most maxHosts.
func radicalCount(radical string) (int, error) {
	if radical == "" {
		return 0, fmt.Errorf("missing radical")
	}
	total := 0
	for _, part := range strings.Split(radical, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || b < a {
				return 0, fmt.Errorf("bad radical range %q", part)
			}
			if b-a >= maxHosts { // also catches b-a+1 overflowing
				return 0, fmt.Errorf("radical range %q exceeds %d hosts", part, maxHosts)
			}
			total += b - a + 1
		} else {
			if _, err := strconv.Atoi(part); err != nil {
				return 0, fmt.Errorf("bad radical element %q", part)
			}
			total++
		}
		if total > maxHosts {
			return 0, fmt.Errorf("radical %q exceeds %d hosts", radical, maxHosts)
		}
	}
	return total, nil
}

// ParseSpeed parses a SimGrid speed value ("8Gf", "950Mf", "1e9f", plain
// flops) into flop/s.
func ParseSpeed(s string) (float64, error) {
	return parseUnit(s, map[string]float64{
		"f": 1, "kf": 1e3, "mf": 1e6, "gf": 1e9, "tf": 1e12, "": 1,
	})
}

// ParseBandwidth parses a SimGrid bandwidth ("125MBps", "1Gbps", plain
// bytes/s) into byte/s. Bps suffixes are bytes, bps are bits.
func ParseBandwidth(s string) (float64, error) {
	return parseUnit(s, map[string]float64{
		"bps": 1.0 / 8, "kbps": 1e3 / 8, "mbps": 1e6 / 8, "gbps": 1e9 / 8,
		"Bps": 1, "kBps": 1e3, "MBps": 1e6, "GBps": 1e9, "": 1,
	})
}

// ParseLatency parses a SimGrid latency ("50us", "1ms", plain seconds)
// into seconds.
func ParseLatency(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	return parseUnit(s, map[string]float64{
		"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1, "": 1,
	})
}

// parseUnit splits a number from its suffix and applies the matching
// factor. Byte-vs-bit bandwidth suffixes differ only by case, so exact
// match is tried before the lowercase fallback.
func parseUnit(s string, units map[string]float64) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			break
		}
		i--
	}
	num, suffix := s[:i], s[i:]
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number in %q", s)
	}
	if factor, ok := units[suffix]; ok {
		return v * factor, nil
	}
	if factor, ok := units[strings.ToLower(suffix)]; ok {
		return v * factor, nil
	}
	return 0, fmt.Errorf("unknown unit %q in %q", suffix, s)
}
