package router

import (
	"encoding/json"
	"fmt"
	"net/http"

	"sirum/internal/server"
	"sirum/internal/spec"
)

// Cross-shard session migration, router side. POST /v1/shards/{id}/migrate
// drains a shard and moves every session it holds to its ring successor:
// per session, export off the origin → import on the destination → verify
// the destination reports the exported fingerprint and epoch → retarget
// the routing table → delete the origin's copy. The origin keeps serving
// reads until the table swap, appends are held at the session's write gate
// across the cut, and any failure leaves the origin copy untouched — the
// operation is idempotent, so an operator re-runs migrate to resume.

// handleMigrate moves every session off the named shard. The shard is
// marked draining first (migration that allowed new placements onto the
// shard being emptied would never terminate). 200 even with failures:
// the response itemizes them and Remaining counts the sessions left, so
// callers re-run to resume rather than guessing from a 5xx.
func (rt *Router) handleMigrate(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	var origin *shard
	for _, sh := range rt.shards {
		if sh.label() == id || fmt.Sprintf("s%d", sh.index) == id {
			origin = sh
			break
		}
	}
	if origin == nil {
		return errf(http.StatusNotFound, "unknown shard %q", id)
	}
	if origin.down.Load() {
		return errf(http.StatusServiceUnavailable, "shard %s is down; migration needs a reachable origin", origin.label())
	}
	origin.draining.Store(true)
	list, err := origin.client.ListSessions()
	if err != nil {
		rt.proxyErrs.Add(1)
		rt.markDown(origin, err)
		return errf(http.StatusBadGateway, "shard %s is unreachable: %v", origin.label(), err)
	}
	resp := MigrateResponse{Shard: origin.label(), Draining: true, Moved: []MigratedSession{}}
	for _, info := range list.Sessions {
		moved, err := rt.migrateSession(origin, info.ID)
		if err != nil {
			resp.Failed = append(resp.Failed, MigrationFailure{ID: info.ID, Error: err.Error()})
			continue
		}
		resp.Moved = append(resp.Moved, moved)
	}
	resp.Remaining = len(resp.Failed)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// migrateSession moves one session from origin to the shard its routing
// key places on now that origin drains. The migration gate is held
// exclusively for the whole move: the export is a consistent cut (no
// append can land on the origin after it and be lost), and the first
// gated request after the cutover locates the destination. In-flight
// requests admitted before the gate closed drain on the origin — the
// exclusive acquire waits them out — so no request ever points at a
// deleted copy.
func (rt *Router) migrateSession(origin *shard, id string) (MigratedSession, error) {
	none := MigratedSession{}
	defer rt.lockGate(id, true)()

	// Resume: a prior attempt already cut this session over and only the
	// origin's delete is left to finish.
	rt.mu.Lock()
	cur := rt.table[id]
	rt.mu.Unlock()
	if cur != nil && cur != origin && !cur.down.Load() {
		if err := rt.deleteOrigin(origin, id); err != nil {
			return none, err
		}
		moved := MigratedSession{ID: id, From: origin.label(), To: cur.label(), Resumed: true}
		if info, err := cur.client.GetSession(id); err == nil && info.Stats != nil {
			moved.Fingerprint = info.Stats.Fingerprint
			moved.Epoch = info.Stats.Epoch
		}
		return moved, nil
	}

	raw, err := rt.forward(origin, http.MethodGet, "/v1/datasets/"+id+"/export", "", nil)
	if err != nil {
		return none, err
	}
	if raw.Status == http.StatusNotFound {
		// Deleted between the listing and the export; nothing to move.
		rt.dropTable(id)
		return none, errf(http.StatusNotFound, "session %q vanished before export", id)
	}
	if raw.Status != http.StatusOK {
		return none, errf(http.StatusBadGateway, "exporting %q from shard %s: status %d", id, origin.label(), raw.Status)
	}
	var doc server.ExportDocument
	if err := json.Unmarshal(raw.Body, &doc); err != nil {
		return none, errf(http.StatusBadGateway, "exporting %q from shard %s: %v", id, origin.label(), err)
	}

	dest, err := rt.placeAway(id, doc)
	if err != nil {
		return none, err
	}
	// The export bytes forward verbatim — re-encoding could only corrupt.
	imp, err := rt.forward(dest, http.MethodPost, "/v1/datasets/import", "application/json", raw.Body)
	if err != nil {
		return none, err
	}
	if imp.Status != http.StatusCreated && imp.Status != http.StatusOK {
		var e server.ErrorResponse
		json.Unmarshal(imp.Body, &e)
		return none, errf(http.StatusBadGateway, "importing %q on shard %s: status %d: %s", id, dest.label(), imp.Status, e.Error)
	}
	var info server.SessionInfo
	if err := json.Unmarshal(imp.Body, &info); err != nil {
		return none, errf(http.StatusBadGateway, "importing %q on shard %s: %v", id, dest.label(), err)
	}
	// The destination verified the rebuild against the export header
	// before committing; check its answer anyway — a cutover on an
	// unverified copy would silently serve the wrong data, the one
	// failure mode migration must never have.
	if info.Stats == nil || info.Stats.Fingerprint != doc.Fingerprint || info.Stats.Epoch < doc.Epoch {
		return none, errf(http.StatusBadGateway,
			"importing %q on shard %s: destination does not match export header (fingerprint %s epoch %d)",
			id, dest.label(), doc.Fingerprint, doc.Epoch)
	}

	// Cutover: retarget the table first, then delete the origin copy.
	// Between the two, reads may still hit the origin's live copy or the
	// destination's identical one — both correct. The reverse order would
	// open a window where the table points at a deleted session.
	rt.setTable(id, dest)
	dest.sessions.Add(1)
	rt.migrated.Add(1)
	if err := rt.deleteOrigin(origin, id); err != nil {
		return none, fmt.Errorf("cut over to %s but origin copy remains: %w", dest.label(), err)
	}
	return MigratedSession{
		ID: id, From: origin.label(), To: dest.label(),
		Fingerprint: info.Stats.Fingerprint, Epoch: info.Stats.Epoch,
	}, nil
}

// placeAway picks the shard a session migrates to: the first ring walk hit
// that is up and not draining (the origin is draining, so it is skipped).
// Auto-assigned ids keep routing by id so anonymous same-spec sessions
// stay spread; named sessions keep routing by content so co-location — and
// with it result-cache sharing — survives the move.
func (rt *Router) placeAway(id string, doc server.ExportDocument) (*shard, error) {
	var key [32]byte
	if _, ok := parseAutoID(id); ok {
		key = spec.RoutingKeyForID(id)
	} else {
		ds, err := doc.RoutingSpec()
		if err != nil {
			return nil, errf(http.StatusBadGateway, "routing key for %q: %v", id, err)
		}
		key = spec.RoutingKey(ds)
	}
	sh, err := rt.place(key)
	if err != nil {
		return nil, errf(http.StatusServiceUnavailable, "no shard can accept %q: every other shard is down or draining", id)
	}
	return sh, nil
}

// deleteOrigin removes the origin's copy after (or during a resumed)
// cutover. 404 means a previous attempt already deleted it.
func (rt *Router) deleteOrigin(origin *shard, id string) error {
	raw, err := rt.forward(origin, http.MethodDelete, "/v1/datasets/"+id, "", nil)
	if err != nil {
		return err
	}
	switch raw.Status {
	case http.StatusNoContent:
		origin.sessions.Add(-1)
	case http.StatusNotFound:
	default:
		return errf(http.StatusBadGateway, "deleting %q from shard %s: status %d", id, origin.label(), raw.Status)
	}
	return nil
}
