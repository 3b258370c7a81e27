package server

import (
	"net/http"

	"sirum/internal/spec"
)

// Cross-shard session migration, shard side. A session's journaled
// identity (manifest + CSV spill + append journal — exactly what the
// snapshotter persists) doubles as its transfer format: /export serializes
// it under the session's journal lock so the cut is consistent, /import
// rebuilds it through the same replay path Restore uses and refuses to
// commit unless the rebuilt DatasetSpec fingerprint, epoch and content
// chain match the export header. The fingerprints are the verification
// oracle — no new wire format, no trust in the sender.

// ExportDocument is one exported session: everything needed to rebuild it
// elsewhere, plus the identity header the importer must reproduce.
type ExportDocument struct {
	Manifest manifest       `json:"manifest"`
	CSV      string         `json:"csv,omitempty"`
	Appends  []appendRecord `json:"appends,omitempty"`
	// Fingerprint (hex source fingerprint), Epoch and Chain describe the
	// session at the moment of export; an importer rebuilds and must
	// arrive at exactly these values before committing.
	Fingerprint string `json:"fingerprint"`
	Epoch       int64  `json:"epoch"`
	Chain       string `json:"chain,omitempty"`
}

// RoutingSpec computes the canonical dataset identity of the exported
// session's source — what a router hashes to place the imported session,
// identical to the fingerprint the session reports once rebuilt.
func (d ExportDocument) RoutingSpec() (spec.DatasetSpec, error) {
	return CreateRequest{
		Generator: d.Manifest.Generator,
		CSV:       d.CSV,
		Measure:   d.Manifest.Measure,
		Ignore:    d.Manifest.Ignore,
	}.sourceSpec()
}

// ID returns the exported session's id.
func (d ExportDocument) ID() string { return d.Manifest.ID }

// handleExport serializes a session for migration. The journal lock spans
// the whole cut: handleAppend applies and records each append under the
// same lock, so the epoch/chain in the header always agree with the
// append list in the body — never a half-applied append.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	sess.journalMu.Lock()
	defer sess.journalMu.Unlock()
	if sess.dropped {
		return Errorf(http.StatusNotFound, "unknown dataset %q", sess.id)
	}
	ds := sess.p.DatasetSpec()
	WriteJSON(w, http.StatusOK, ExportDocument{
		Manifest:    sess.m,
		CSV:         sess.csv,
		Appends:     append([]appendRecord(nil), sess.appends...),
		Fingerprint: spec.Hex(ds.Fingerprint()),
		Epoch:       ds.Epoch,
		Chain:       ds.Chain,
	})
	return nil
}

// handleImport rebuilds an exported session on this shard. 201 on success,
// 200 when the session already exists and matches the document (a resumed
// migration re-importing is a no-op), 409 when the rebuilt session does
// not reproduce the export header or the id is taken by different content.
// A failed import leaves this shard exactly as it was.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) error {
	var doc ExportDocument
	if err := s.decodeJSON(w, r, &doc); err != nil {
		return err
	}
	id := doc.Manifest.ID
	if err := CheckSessionID(id); err != nil {
		return err
	}
	if sess, err := s.lookup(id); err == nil {
		return s.importExisting(w, sess, doc)
	}
	// Rebuilding re-prepares the dataset — the heaviest work the daemon
	// does — so it takes an admission slot like a create.
	release, err := s.admit(r.Context())
	if err != nil {
		return err
	}
	defer release()
	ds, p, err := s.rebuildSession(snapshotEntry{m: doc.Manifest, csv: doc.CSV, appends: doc.Appends})
	if err != nil {
		return err
	}
	got := p.DatasetSpec()
	if fp := spec.Hex(got.Fingerprint()); fp != doc.Fingerprint || got.Epoch != doc.Epoch || got.Chain != doc.Chain {
		p.Close()
		return Errorf(http.StatusConflict,
			"import of %q failed verification: rebuilt fingerprint=%s epoch=%d chain=%s, export header fingerprint=%s epoch=%d chain=%s",
			id, fp, got.Epoch, got.Chain, doc.Fingerprint, doc.Epoch, doc.Chain)
	}
	snap, err := s.persistence()
	if err != nil {
		p.Close()
		return err
	}
	sess, err := s.addSession(id, ds, p, snapshotEntry{m: doc.Manifest, csv: doc.CSV, appends: doc.Appends})
	if err != nil {
		p.Close()
		// Lost a race with a concurrent import of the same id: if the
		// winner carries the same content this import still succeeded.
		if other, lerr := s.lookup(id); lerr == nil {
			return s.importExisting(w, other, doc)
		}
		return err
	}
	if snap != nil {
		if err := s.journalSession(snap, sess); err != nil {
			s.dropSession(sess.id)
			return Errorf(http.StatusInternalServerError, "journaling imported session: %v", err)
		}
	}
	WriteJSON(w, http.StatusCreated, s.info(sess, true))
	return nil
}

// importExisting resolves an import whose id is already registered: 200
// when the resident session matches the document (same source fingerprint
// at the same or a later epoch — a committed earlier import, possibly with
// post-cutover appends on top), 409 otherwise.
func (s *Server) importExisting(w http.ResponseWriter, sess *session, doc ExportDocument) error {
	ds := sess.p.DatasetSpec()
	match := spec.Hex(ds.Fingerprint()) == doc.Fingerprint &&
		(ds.Epoch > doc.Epoch || (ds.Epoch == doc.Epoch && ds.Chain == doc.Chain))
	if !match {
		return Errorf(http.StatusConflict, "dataset %q already exists with different content", sess.id)
	}
	WriteJSON(w, http.StatusOK, s.info(sess, true))
	return nil
}
