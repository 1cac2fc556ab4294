package api

// ChangeSet statuses. A ChangeSet is born "dry-run"; executing it moves it
// to "executed" (receipt pass) or "diverged" (receipt fail); a mutation
// list the world rejects outright is "rejected".
const (
	StatusDryRun   = "dry-run"
	StatusExecuted = "executed"
	StatusDiverged = "diverged"
	StatusRejected = "rejected"
)

// Mutation is one intended change to the world: an entry on a scenario
// timeline (internal/scenario aliases it as Event) or in a ChangeSet's
// mutation list. It is the one declaration of the vocabulary's fields, so a
// scenario file's events and a ChangeSet's mutations are the same language.
// Which fields are meaningful depends on Kind (crash, fail, drain, recover,
// link-down, link-up, switch-technique, demand-scale, announce-policy, ...;
// the scenario package documents each); scenario validation enforces the
// per-kind requirements.
type Mutation struct {
	// At is the event time in virtual seconds from scenario start.
	// ChangeSets act now: the control plane rejects a non-zero At.
	At float64 `json:"at,omitempty"`
	// Kind selects the mutation; required.
	Kind string `json:"kind"`
	// Site names the affected CDN site for site-scoped kinds.
	Site string `json:"site,omitempty"`
	// A and B name the two endpoints of a link/session fault. Site codes
	// resolve to the site's node; anything else must be a topology node
	// name (e.g. "transit-sea-weak").
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Fraction is the kind-specific ratio: the demand multiplier for
	// demand-scale and flash-crowd, the share of provider links (in (0,1],
	// at least one link) for the partial kinds.
	Fraction float64 `json:"fraction,omitempty"`
	// Radius is the regional-failure metro radius in one-way milliseconds
	// on the latency plane.
	Radius float64 `json:"radius,omitempty"`
	// Period is the flap cycle length (fail, then recover half a period
	// later) or the flash-crowd duration, in seconds.
	Period float64 `json:"period,omitempty"`
	// Count is the kind-specific integer: flap cycles, or AS-path prepends
	// for announce-policy.
	Count int `json:"count,omitempty"`
	// DrainFor is the grace period of a drain: seconds the site keeps
	// forwarding after its announcements are withdrawn.
	DrainFor float64 `json:"drainFor,omitempty"`
	// Technique is the target technique name for switch-technique
	// (core.TechniqueByName vocabulary).
	Technique string `json:"technique,omitempty"`
}

// ChangeSet is the record of one intended batch of mutations: what was
// asked, what the dry run predicted, and — if executed — what actually
// happened and whether it matched.
type ChangeSet struct {
	// APIVersion is the wire-schema version (Version).
	APIVersion string `json:"apiVersion"`
	// ID is the daemon-assigned identifier ("cs-000001", monotonic).
	ID string `json:"id"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// CreatedAt/ExecutedAt are RFC 3339 wall-clock timestamps — the only
	// nondeterministic fields in the schema. Receipt comparison and golden
	// tests must ignore them.
	CreatedAt  string `json:"createdAt,omitempty"`
	ExecutedAt string `json:"executedAt,omitempty"`
	// Mutations is the ordered intended change list.
	Mutations []Mutation `json:"mutations"`
	// Pre is the world state the ChangeSet was evaluated against.
	Pre WorldState `json:"pre"`
	// Predicted is the dry-run post-state: the mutations applied to a
	// copy-on-write snapshot of Pre and converged.
	Predicted WorldState `json:"predicted"`
	// Delta summarizes Predicted − Pre.
	Delta Delta `json:"delta"`
	// Actual is the live world's post-state after execution; nil while the
	// ChangeSet is only a dry run.
	Actual *WorldState `json:"actual,omitempty"`
	// Receipt is the verification verdict from re-diffing Predicted
	// against Actual; nil while the ChangeSet is only a dry run.
	Receipt *Receipt `json:"receipt,omitempty"`
}

// Delta is the predicted effect of a ChangeSet: availability movement plus
// per-site load movement.
type Delta struct {
	// ReachableShare is predicted minus pre reachable share.
	ReachableShare float64 `json:"reachableShare"`
	// ServedMicroRPS is the predicted change in total served demand.
	ServedMicroRPS int64 `json:"servedMicroRPS,omitempty"`
	// ShedMicroRPS is the predicted change in total shed demand.
	ShedMicroRPS int64 `json:"shedMicroRPS,omitempty"`
	// Sites lists per-site changes in stable site order, omitting sites
	// with no change.
	Sites []SiteDelta `json:"sites,omitempty"`
}

// SiteDelta is one site's predicted change.
type SiteDelta struct {
	Site string `json:"site"`
	// Transition is "" (no lifecycle change), "failed", or "recovered".
	Transition string `json:"transition,omitempty"`
	// Load deltas are predicted minus pre, micro-rps.
	OfferedMicroRPS int64 `json:"offeredMicroRPS,omitempty"`
	ServedMicroRPS  int64 `json:"servedMicroRPS,omitempty"`
	ShedMicroRPS    int64 `json:"shedMicroRPS,omitempty"`
}

// Receipt is the verification verdict attached after execution: the
// predicted post-state re-diffed against the actual one, field by field.
// Determinism makes pass the only honest outcome — any diff means the
// prediction and execution paths diverged and the ChangeSet must not be
// trusted.
type Receipt struct {
	// Pass is true iff Predicted and Actual are identical.
	Pass bool `json:"pass"`
	// Diffs names every diverging field; empty when Pass.
	Diffs []FieldDiff `json:"diffs,omitempty"`
}

// FieldDiff is one diverging field, addressed by its JSON path within
// WorldState (e.g. "sites[atl].load.shedMicroRPS").
type FieldDiff struct {
	Field     string `json:"field"`
	Predicted string `json:"predicted"`
	Actual    string `json:"actual"`
}
