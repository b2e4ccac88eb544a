package loadgen

import (
	"fmt"
	"strconv"
	"strings"

	"p2kvs/internal/cluster"
)

// Info is a parsed INFO reply: every "key:value" line, section headers
// dropped.
type Info map[string]string

// ParseInfo parses the body of an INFO reply.
func ParseInfo(body string) Info {
	m := Info{}
	for _, line := range strings.Split(body, "\r\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && !strings.HasPrefix(k, "#") {
			m[k] = v
		}
	}
	return m
}

// Int returns a numeric field; a missing or non-numeric field reads 0.
func (m Info) Int(key string) int64 {
	n, _ := strconv.ParseInt(m[key], 10, 64)
	return n
}

// FetchInfo issues INFO on c and parses the reply.
func FetchInfo(c *cluster.Conn) (Info, error) {
	rep, err := c.Do([]byte("INFO"))
	if err != nil {
		return nil, err
	}
	if rep.IsError() || rep.Kind != '$' {
		return nil, fmt.Errorf("INFO: unexpected reply %s", rep.String())
	}
	return ParseInfo(string(rep.Str)), nil
}
