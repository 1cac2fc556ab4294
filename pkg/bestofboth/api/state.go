package api

// WorldInfo is the daemon's top-level description of the world it owns:
// identity (seed, config digest, shard count) plus the current state.
type WorldInfo struct {
	// APIVersion is the wire-schema version (Version).
	APIVersion string `json:"apiVersion"`
	// Seed is the simulation seed; together with ConfigDigest it pins the
	// world bit-for-bit.
	Seed int64 `json:"seed"`
	// ConfigDigest fingerprints the world configuration.
	ConfigDigest string `json:"configDigest"`
	// Shards is the BGP shard count the world runs under.
	Shards int `json:"shards"`
	// DemandEnabled reports whether a demand model (and so load
	// accounting) is attached.
	DemandEnabled bool `json:"demandEnabled"`
	// State is the world's current observable state.
	State WorldState `json:"state"`
}

// WorldState is the deterministic observable state of a deployed world at
// one instant of virtual time: the quantity ChangeSet predictions and
// verification receipts are computed over. Two bit-identical worlds yield
// byte-identical WorldStates.
type WorldState struct {
	// VirtualTime is the kernel clock in virtual seconds.
	VirtualTime float64 `json:"virtualTime"`
	// Technique is the deployed technique's name.
	Technique string `json:"technique"`
	// Sites lists every site in stable (prefix-plan) order.
	Sites []SiteState `json:"sites"`
	// Availability summarizes client reachability of the service.
	Availability Availability `json:"availability"`
	// Digests fingerprint the full routing, forwarding, and DNS state.
	Digests Digests `json:"digests"`
}

// SiteState is one site's observable state.
type SiteState struct {
	// Code is the site code (e.g. "atl").
	Code string `json:"code"`
	// Node is the topology node name hosting the site.
	Node string `json:"node"`
	// Prefix is the site's dedicated unicast /24; Addr its service address.
	Prefix string `json:"prefix"`
	Addr   string `json:"addr"`
	// Failed reports whether the site is currently failed (or drained).
	Failed bool `json:"failed"`
	// Announcements is the number of live originations the controller
	// holds at the site.
	Announcements int `json:"announcements"`
	// Load is the site's load-accountant row; nil without a demand model.
	Load *SiteLoad `json:"load,omitempty"`
}

// SiteLoad is one site's load state in fixed-point micro-rps (int64, so
// equality across worlds is exact, never float-rounded).
type SiteLoad struct {
	CapacityMicroRPS int64 `json:"capacityMicroRPS"`
	OfferedMicroRPS  int64 `json:"offeredMicroRPS"`
	ServedMicroRPS   int64 `json:"servedMicroRPS"`
	ShedMicroRPS     int64 `json:"shedMicroRPS"`
}

// Availability summarizes service reachability: which client targets can
// reach a live site at all, and — with a demand model — how much demand is
// actually served.
type Availability struct {
	// Targets is the client-target population size; Reachable counts the
	// targets whose demand address currently lands at a live site.
	Targets   int `json:"targets"`
	Reachable int `json:"reachable"`
	// ReachableShare is Reachable/Targets (1 when Targets is 0).
	ReachableShare float64 `json:"reachableShare"`
	// Demand fields are micro-rps totals; zero without a demand model.
	DemandTotalMicroRPS    int64 `json:"demandTotalMicroRPS,omitempty"`
	DemandServedMicroRPS   int64 `json:"demandServedMicroRPS,omitempty"`
	DemandShedMicroRPS     int64 `json:"demandShedMicroRPS,omitempty"`
	DemandUnservedMicroRPS int64 `json:"demandUnservedMicroRPS,omitempty"`
}

// Digests fingerprint the world's converged state. Equal digests ⇒ the two
// worlds make identical forwarding, export, and resolution decisions.
type Digests struct {
	// RouteStateSHA256 hashes the canonical text of every speaker's RIBs.
	RouteStateSHA256 string `json:"routeStateSHA256"`
	// FIBSHA256 hashes every node's forwarding table.
	FIBSHA256 string `json:"fibSHA256"`
	// DNSZoneSHA256 hashes the authoritative zone's record sets.
	DNSZoneSHA256 string `json:"dnsZoneSHA256"`
}

// DNSRecord is one record set of the authoritative zone.
type DNSRecord struct {
	Name  string   `json:"name"`
	Type  string   `json:"type"` // always "A"
	TTL   uint32   `json:"ttl"`
	Addrs []string `json:"addrs"`
}

// ZoneDump is the authoritative zone's full contents, sorted by name then
// type.
type ZoneDump struct {
	APIVersion string      `json:"apiVersion"`
	Origin     string      `json:"origin"`
	Serial     uint32      `json:"serial"`
	Records    []DNSRecord `json:"records"`
}

// LoadReport is the per-site load breakdown (GET /v1/load).
type LoadReport struct {
	APIVersion string `json:"apiVersion"`
	// Shedding reports the accountant's overload policy (load-shed sheds
	// excess; other techniques serve degraded).
	Shedding     bool         `json:"shedding"`
	Sites        []SiteState  `json:"sites"`
	Availability Availability `json:"availability"`
}

// SiteCatchment is the demand-address catchment of one site: how many
// client targets (and how much of their demand) currently land there.
type SiteCatchment struct {
	Site           string `json:"site"`
	Targets        int    `json:"targets"`
	DemandMicroRPS int64  `json:"demandMicroRPS,omitempty"`
}

// Catchments is the per-site breakdown of where client demand lands.
type Catchments struct {
	APIVersion string `json:"apiVersion"`
	// Addr is the probed address family: "demand" means each target's own
	// demand address (technique-dependent), otherwise the literal address.
	Addr string `json:"addr"`
	// Sites lists live catchments in stable site order; Unreachable counts
	// targets whose packets reach no live site.
	Sites          []SiteCatchment `json:"sites"`
	Unreachable    int             `json:"unreachable"`
	UnreachableRPS int64           `json:"unreachableMicroRPS,omitempty"`
}
