// Package api defines the simulator's versioned public wire schema: the
// JSON types exchanged by the control-plane daemon (cdnsim serve) and
// written into per-run manifests and -json experiment output.
//
// Every top-level document carries an "apiVersion" field (Version). The
// package depends only on the standard library — no internal simulator
// types leak into the wire — so external tooling can unmarshal any
// document with this package alone.
//
// Determinism contract: every document marshals to canonical bytes.
// Struct fields encode in declaration order, map-valued fields are
// avoided in favor of sorted slices, and no wall-clock values appear
// outside explicitly named timestamp fields (ChangeSet.CreatedAt,
// ChangeSet.ExecutedAt). Two equal worlds therefore produce bit-identical
// response bodies, which is what makes dry-run receipts testable with
// golden files.
package api

// Version is the current public API version. It appears as the
// "apiVersion" field of every top-level document.
const Version = "v1"
