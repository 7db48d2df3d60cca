package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The job-request decoder: one recursive-descent pass over the request's
// fixed schema that fills a JobRequest with no reflection and no token
// stream. It accepts exactly the bodies encoding/json (with
// DisallowUnknownFields and nothing but whitespace after the document)
// accepts into a JobRequest, and fills the same values:
//
//   - a key selects the field it names exactly, else the one it names
//     under Unicode case folding; an unknown key is an error;
//   - a value of the wrong type is an error, so no value is ever skipped;
//   - integers follow the JSON number grammar, and a fraction, an
//     exponent or an out-of-range value is an error;
//   - null clears a slice and leaves any other field as it is;
//   - a repeated object merges into the earlier one, and a repeated array
//     is decoded into the earlier one's backing array, as reflect-based
//     decoding does;
//   - strings holding an escape, a control byte or a non-ASCII byte are
//     unquoted by encoding/json, so unescaping and invalid-UTF-8
//     replacement stay the standard library's.
//
// FuzzDecodeDifferential pins this parity against the encoding/json path.

// Field names of each schema object, as their json tags spell them.
var (
	requestFields   = []string{"graph", "k", "bmax", "rmax", "options", "timeout_ms", "async", "priority"}
	graphFields     = []string{"nodes", "edges", "hyperedges"}
	nodeFields      = []string{"id", "weight", "name"}
	edgeFields      = []string{"u", "v", "weight"}
	hyperEdgeFields = []string{"pins", "weight"}
	optionFields    = []string{"seed", "max_cycles", "restarts", "coarsen_target", "refine_passes", "refine",
		"minimize_after_feasible", "algo", "stream_iterations", "replicate", "max_clones"}
)

// readBody reads a request body into one buffer, refusing bodies longer
// than MaxBodyBytes.
func readBody(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(io.LimitReader(r, MaxBodyBytes+1)); err != nil {
		return nil, fmt.Errorf("%w: read body: %v", ErrBadRequest, err)
	}
	if buf.Len() > MaxBodyBytes {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrBadRequest, MaxBodyBytes)
	}
	return buf.Bytes(), nil
}

// decodeRequest parses one JSON document into req; only whitespace may
// follow it.
func decodeRequest(data []byte, req *JobRequest) error {
	d := decoder{data: data}
	d.skipSpace()
	if err := d.request(req); err != nil {
		return err
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return fmt.Errorf("%w: trailing data after request body", ErrBadRequest)
	}
	return nil
}

// decoder is the parse position in a request body.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", ErrBadRequest, d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) skipSpace() {
	i := d.off
	for i < len(d.data) && (d.data[i] == ' ' || d.data[i] == '\t' || d.data[i] == '\n' || d.data[i] == '\r') {
		i++
	}
	d.off = i
}

// peek returns the next byte, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// null consumes a null literal if one comes next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	if !bytes.HasPrefix(d.data[d.off:], []byte("null")) {
		return false, d.errorf("invalid literal")
	}
	d.off += 4
	return true, nil
}

// object decodes a JSON object, calling field with the schema name each
// key matches; the value follows at the decoder's position. null leaves
// the target as it is.
func (d *decoder) object(names []string, field func(d *decoder, name string) error) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if d.peek() != '{' {
		return d.errorf("want an object")
	}
	d.off++
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		key, err := d.stringBytes()
		if err != nil {
			return err
		}
		name, ok := matchField(names, key)
		if !ok {
			return fmt.Errorf("%w: unknown field %q", ErrBadRequest, key)
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.errorf("want ':' after object key")
		}
		d.off++
		d.skipSpace()
		if err := field(d, name); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case '}':
			d.off++
			return nil
		default:
			return d.errorf("want ',' or '}' after object value")
		}
	}
}

// matchField finds the schema name a key selects: an exact match first,
// then a case-insensitive one.
func matchField(names []string, key []byte) (string, bool) {
	for _, n := range names {
		if string(key) == n {
			return n, true
		}
	}
	for _, n := range names {
		if strings.EqualFold(string(key), n) {
			return n, true
		}
	}
	return "", false
}

// array decodes a JSON array into s the way encoding/json decodes into a
// slice: element i reuses s's backing array (so an element decoded over
// an earlier one merges with it), a shorter array truncates s, [] is a
// new empty slice and null is nil. s grows only when full and the growth
// copies all of it, so what an element is decoded over does not depend
// on the capacity policy.
func array[T any](d *decoder, s []T, elem func(d *decoder, v *T) error) ([]T, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	if d.peek() != '[' {
		return nil, d.errorf("want an array")
	}
	d.off++
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		return []T{}, nil
	}
	for i := 0; ; i++ {
		if i >= cap(s) {
			// Doubling: append's gentler growth would copy a 60k-edge
			// list about five times over.
			s = slices.Grow(s, max(cap(s), 1))
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		if err := elem(d, &s[i]); err != nil {
			return nil, err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case ']':
			d.off++
			return s[:i+1], nil
		default:
			return nil, d.errorf("want ',' or ']' after array element")
		}
	}
}

// stringBytes decodes a string token. An escape-free ASCII string is
// returned as a slice of the body; any other is unquoted by
// encoding/json into fresh memory.
func (d *decoder) stringBytes() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("want a string")
	}
	start := d.off
	plain := true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			if plain {
				return d.data[start+1 : i], nil
			}
			var s string
			if err := json.Unmarshal(d.data[start:d.off], &s); err != nil {
				return nil, d.errorf("%v", err)
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return nil, d.errorf("unterminated string")
}

// string decodes a string or null into *p; the value never aliases the
// body.
func (d *decoder) string(p *string) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	b, err := d.stringBytes()
	if err != nil {
		return err
	}
	*p = string(b)
	return nil
}

// bool decodes true, false or null into *p.
func (d *decoder) bool(p *bool) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	rest := d.data[d.off:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*p = true
		d.off += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*p = false
		d.off += 5
	default:
		return d.errorf("want a boolean")
	}
	return nil
}

// int64 decodes an integer or null into *p.
func (d *decoder) int64(p *int64) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	data, i := d.data, d.off
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	first := i
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	digits := data[first:i]
	switch {
	case len(digits) == 0:
		return d.errorf("want an integer")
	case len(digits) > 1 && digits[0] == '0':
		return d.errorf("leading zero in number")
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return d.errorf("want an integer, not a fraction or exponent")
	case len(digits) > 19: // 10^19 exceeds every int64
		return d.errorf("integer %s out of range", data[d.off:i])
	}
	// Nineteen digits stay below 10^19 < 2^64, so mag cannot wrap.
	var mag uint64
	for _, c := range digits {
		mag = mag*10 + uint64(c-'0')
	}
	if mag > 1<<63-1 && !(neg && mag == 1<<63) {
		return d.errorf("integer %s out of range", data[d.off:i])
	}
	d.off = i
	if neg {
		*p = -int64(mag)
	} else {
		*p = int64(mag)
	}
	return nil
}

// int decodes an integer or null into *p, rejecting values int cannot
// hold.
func (d *decoder) int(p *int) error {
	v := int64(*p)
	if err := d.int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return d.errorf("integer %d out of range", v)
	}
	*p = int(v)
	return nil
}

func (d *decoder) request(req *JobRequest) error {
	return d.object(requestFields, func(d *decoder, name string) error {
		switch name {
		case "graph":
			return d.graph(&req.Graph)
		case "k":
			return d.int(&req.K)
		case "bmax":
			return d.int64(&req.Bmax)
		case "rmax":
			return d.int64(&req.Rmax)
		case "options":
			return d.options(&req.Options)
		case "timeout_ms":
			return d.int64(&req.TimeoutMS)
		case "async":
			return d.bool(&req.Async)
		case "priority":
			return d.string(&req.Priority)
		}
		return nil
	})
}

func (d *decoder) graph(g *GraphSpec) error {
	return d.object(graphFields, func(d *decoder, name string) (err error) {
		switch name {
		case "nodes":
			g.Nodes, err = array(d, g.Nodes, (*decoder).node)
		case "edges":
			g.Edges, err = array(d, g.Edges, (*decoder).edge)
		case "hyperedges":
			g.HyperEdges, err = array(d, g.HyperEdges, (*decoder).hyperEdge)
		}
		return err
	})
}

func (d *decoder) node(nd *NodeSpec) error {
	return d.object(nodeFields, func(d *decoder, name string) error {
		switch name {
		case "id":
			return d.int(&nd.ID)
		case "weight":
			return d.int64(&nd.Weight)
		case "name":
			return d.string(&nd.Name)
		}
		return nil
	})
}

func (d *decoder) edge(e *EdgeSpec) error {
	return d.object(edgeFields, func(d *decoder, name string) error {
		switch name {
		case "u":
			return d.int(&e.U)
		case "v":
			return d.int(&e.V)
		case "weight":
			return d.int64(&e.Weight)
		}
		return nil
	})
}

func (d *decoder) hyperEdge(he *HyperEdgeSpec) error {
	return d.object(hyperEdgeFields, func(d *decoder, name string) (err error) {
		switch name {
		case "pins":
			he.Pins, err = array(d, he.Pins, (*decoder).int)
		case "weight":
			err = d.int64(&he.Weight)
		}
		return err
	})
}

func (d *decoder) options(o *JobOptions) error {
	return d.object(optionFields, func(d *decoder, name string) error {
		switch name {
		case "seed":
			return d.int64(&o.Seed)
		case "max_cycles":
			return d.int(&o.MaxCycles)
		case "restarts":
			return d.int(&o.Restarts)
		case "coarsen_target":
			return d.int(&o.CoarsenTarget)
		case "refine_passes":
			return d.int(&o.RefinePasses)
		case "refine":
			return d.string(&o.Refine)
		case "minimize_after_feasible":
			return d.bool(&o.MinimizeAfterFeasible)
		case "algo":
			return d.string(&o.Algo)
		case "stream_iterations":
			return d.int(&o.StreamIterations)
		case "replicate":
			return d.bool(&o.Replicate)
		case "max_clones":
			return d.int(&o.MaxClones)
		}
		return nil
	})
}
