// Package receipt issues and verifies signed completion receipts for
// campaign jobs. A receipt binds a job's identity (ID, kind, idempotency
// key), its cell count, the SHA-256 of its assembled result bytes and
// the list of cells that had to be requeued after a worker loss, under
// an HMAC-SHA256 signature keyed by the server's receipt key. Clients
// can hold the receipt as proof of what the campaign computed; a
// resubmitted job is answered with the original receipt, and a crash-
// resumed campaign must reissue byte-identical receipts — both pinned by
// the differential harness.
//
// Receipts deliberately carry no timestamps: they are a pure function of
// the job's content and outcome, which is what makes them comparable
// across golden and resumed runs.
//
// A receipt proves what the campaign computed, not that it is durable:
// the server fsyncs neither its event log nor its cache segment, so the
// results a receipt covers survive the death of the server process but
// not a kernel crash or power loss.
package receipt

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Receipt is one job's signed completion record.
type Receipt struct {
	Job        string   `json:"job"`  // server-assigned job ID
	Kind       string   `json:"kind"` // job kind: taskset, sdl, fault, dse
	Key        string   `json:"key"`  // idempotency key of the submission
	Cells      int      `json:"cells"`
	ResultHash string   `json:"result_hash"`        // sha256 (hex) of the assembled result bytes
	Requeued   []string `json:"requeued,omitempty"` // cells re-dispatched after a worker loss
	Sig        string   `json:"sig"`                // hex HMAC-SHA256 over Payload()
}

// Payload renders the canonical signed byte form — a fixed field order,
// newline-framed, so two receipts over the same facts serialize (and
// therefore sign) identically.
func (r Receipt) Payload() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "receipt/1\njob=%s\nkind=%s\nkey=%s\ncells=%d\nresult=%s\n",
		r.Job, r.Kind, r.Key, r.Cells, r.ResultHash)
	for _, c := range r.Requeued {
		fmt.Fprintf(&b, "requeued=%s\n", c)
	}
	return []byte(b.String())
}

// Sign returns the receipt with its signature filled in.
func Sign(r Receipt, key []byte) Receipt {
	mac := hmac.New(sha256.New, key)
	mac.Write(r.Payload())
	r.Sig = hex.EncodeToString(mac.Sum(nil))
	return r
}

// Verify reports whether the receipt's signature is valid under key.
func Verify(r Receipt, key []byte) bool {
	sig, err := hex.DecodeString(r.Sig)
	if err != nil {
		return false
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(r.Payload())
	return hmac.Equal(sig, mac.Sum(nil))
}
