package kv

import (
	"encoding/json"
	"errors"
	"testing"
)

// A Health crosses JSON as names and messages and decodes back into
// itself; on the reporting side the error chain stays reachable.
func TestHealthJSONRoundTrip(t *testing.T) {
	cerr := &CorruptionError{File: "000007.sst", Offset: 42, Detail: "block crc mismatch"}
	in := Health{State: StateReadOnly, Err: CauseOf(cerr), FlushRetries: 3, LastCorruption: CauseOf(cerr)}
	if !errors.Is(in.Err, ErrCorruption) {
		t.Fatal("CauseOf hides the chain from errors.Is")
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Health
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("Health does not decode from its own JSON: %v\n%s", err, raw)
	}
	if out.State != StateReadOnly || out.FlushRetries != 3 || out.Err == nil || out.Err.Error() != cerr.Error() ||
		out.LastCorruption == nil || out.LastCorruption.Error() != cerr.Error() {
		t.Fatalf("decoded %+v from %s", out, raw)
	}

	// Healthy: no error keys at all, and an unknown state name is refused.
	var healthy Health
	if raw, _ := json.Marshal(Health{}); json.Unmarshal(raw, &healthy) != nil || healthy != (Health{}) {
		t.Fatalf("healthy round trip: %s -> %+v", raw, healthy)
	}
	if err := json.Unmarshal([]byte(`{"health":"on fire"}`), &out); err == nil {
		t.Fatal("unknown health state decoded")
	}
	if CauseOf(nil) != nil {
		t.Fatal("CauseOf(nil) must stay nil")
	}
}
