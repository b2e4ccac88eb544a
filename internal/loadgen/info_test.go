package loadgen

import "testing"

func TestParseInfo(t *testing.T) {
	m := ParseInfo("# Server\r\nworkers:4\r\nengine:rocksdb\r\n\r\n# Replication\r\nrole:replica\r\n" +
		"master_link_status:up\r\nreplica_lag_gsn:-1\r\nmaster_link_last_error:dial tcp 127.0.0.1:1: refused\r\ncache_hits:12345678901\r\n")
	if m["role"] != "replica" || m["engine"] != "rocksdb" || m["master_link_status"] != "up" {
		t.Fatalf("string fields: %v", m)
	}
	if got := m["master_link_last_error"]; got != "dial tcp 127.0.0.1:1: refused" {
		t.Fatalf("value with colons = %q", got)
	}
	if m.Int("workers") != 4 || m.Int("cache_hits") != 12345678901 {
		t.Fatalf("numeric fields: workers=%d cache_hits=%d", m.Int("workers"), m.Int("cache_hits"))
	}
	// -1 is the replica's honest "lag unknown": it must not read as 0.
	if m.Int("replica_lag_gsn") != -1 {
		t.Fatalf("replica_lag_gsn = %d, want -1", m.Int("replica_lag_gsn"))
	}
	if m.Int("missing") != 0 || m.Int("role") != 0 {
		t.Fatal("missing / non-numeric fields must read 0")
	}
	if _, ok := m["# Server"]; ok || len(m) != 7 {
		t.Fatalf("section headers or blank lines leaked into %v", m)
	}
}
