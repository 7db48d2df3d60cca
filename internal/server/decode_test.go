package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ppnpart/internal/graph"
)

// referenceDecode is the encoding/json request path the schema decoder
// replaced: a reflective decode with unknown fields refused, nothing but
// whitespace after the document, then BuildGraph and Validate.
func referenceDecode(data []byte) (*JobRequest, *graph.Graph, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, nil, fmt.Errorf("%w: trailing data after request body", ErrBadRequest)
	}
	g, err := req.BuildGraph()
	if err != nil {
		return nil, nil, err
	}
	if err := req.Validate(g); err != nil {
		return nil, nil, err
	}
	return &req, g, nil
}

// everyField sets every field of the schema to a value other than its
// zero.
const everyField = `{"graph":{"nodes":[{"id":0,"weight":1,"name":"a"},{"id":1,"weight":2,"name":"b"},{"id":2,"weight":3}],` +
	`"edges":[{"u":0,"v":1,"weight":3},{"u":1,"v":2,"weight":4}],"hyperedges":[{"pins":[0,1,2],"weight":4}]},` +
	`"k":2,"bmax":100,"rmax":100,"options":{"seed":3,"max_cycles":2,"restarts":1,"coarsen_target":2,` +
	`"refine_passes":1,"refine":"serial","minimize_after_feasible":true,"algo":"gp","stream_iterations":2,` +
	`"replicate":true,"max_clones":3},"timeout_ms":100,"async":true,"priority":"high"}`

// scalarValue finds every scalar member value of a body.
var scalarValue = regexp.MustCompile(`"[a-z_]+":(-?[0-9]+|true|false|"[a-z]*")`)

// decodeSeeds is the differential corpus beyond jobRequestSeeds: key
// folding, string escapes and bad UTF-8, null at every position,
// repeated keys, number forms and trailing bytes.
func decodeSeeds() []string {
	seeds := []string{
		everyField,
		// Case-folded keys, the Kelvin sign and long s included.
		strings.Replace(everyField, `"k":`, `"K":`, 1),
		strings.Replace(everyField, `"k":`, `"\u212a":`, 1),
		strings.Replace(everyField, `"k":`, "\"K\":", 1),
		strings.ReplaceAll(everyField, `"weight":`, `"Weight":`),
		strings.Replace(everyField, `"seed":`, "\"ſeed\":", 1),
		strings.Replace(everyField, `"graph":`, `"GRAPH":`, 1),
		strings.Replace(everyField, `"k":`, `"k":1,"K":`, 1),
		// Escaped keys, escaped and non-ASCII names, invalid UTF-8.
		strings.Replace(everyField, `"bmax":`, `"\u0062max":`, 1),
		strings.Replace(everyField, `"name":"a"`, `"name":"\u00e9\ud83d\ude00"`, 1),
		strings.Replace(everyField, `"name":"a"`, `"name":"a\"b\\c\/é😀\n"`, 1),
		strings.Replace(everyField, `"name":"a"`, `"name":"héllo"`, 1),
		strings.Replace(everyField, `"name":"a"`, "\"name\":\"\xff\xfe\"", 1),
		strings.Replace(everyField, `"name":"a"`, `"name":"\ud800"`, 1),
		strings.Replace(everyField, `"name":"a"`, "\"name\":\"a\tb\"", 1),
		strings.Replace(everyField, `"name":"a"`, `"name":"\x"`, 1),
		strings.Replace(everyField, `"name":"a"`, `"name":"\u12"`, 1),
		strings.Replace(everyField, `"k":`, "\"k\xff\":", 1),
		strings.Replace(everyField, `"priority":"high"`, `"pri\u006frity":"\u0068igh"`, 1),
		// null for every compound value and array element.
		`null`,
		strings.Replace(everyField, `"options":{`, `"options":null,"options":{`, 1),
		strings.Replace(everyField, `"hyperedges":[{"pins":[0,1,2],"weight":4}]`, `"hyperedges":null`, 1),
		strings.Replace(everyField, `"pins":[0,1,2]`, `"pins":null`, 1),
		strings.Replace(everyField, `"pins":[0,1,2]`, `"pins":[0,null,2]`, 1),
		strings.Replace(everyField, `"pins":[0,1,2]`, `"pins":[]`, 1),
		strings.Replace(everyField, `"hyperedges":[{`, `"hyperedges":[null,{`, 1),
		strings.Replace(everyField, `"edges":[{`, `"edges":[null,{`, 1),
		strings.Replace(everyField, `"edges":[`, `"edges":null,"edges":[`, 1),
		strings.Replace(everyField, `{"id":2,"weight":3}`, `null`, 1),
		strings.Replace(everyField, `"graph":{`, `"graph":null,"graph":{`, 1),
		`{"graph":null,"k":1}`,
		`{"graph":{"nodes":null,"edges":null},"k":1}`,
		`{"graph":{"nodes":[{"id":0}],"edges":[]},"k":1,"options":null,"priority":null,"async":null}`,
		`{"graph":{"nodes":[{"id":0}],"edges":[],"hyperedges":[]},"k":1}`,
		`{"graph":{"nodes":[{"id":0}]},"k":1}`,
		`{"graph":{"nodes":[{"id":0}],"edges":[]},"k":1,"async":nul}`,
		`{"graph":{"nodes":[{"id":0}],"edges":[]},"k":1,"async":nullx}`,
		`{"graph":{"nodes":[{"id":0}],"edges":[]},"k":1,"async":tru}`,
		// Repeated keys: objects merge, arrays decode over the earlier
		// backing array.
		`{"graph":{"nodes":[{"id":0},{"id":1},{"id":2}]},"graph":{"edges":[{"u":0,"v":1,"weight":2}]},"k":2}`,
		`{"graph":{"nodes":[{"id":0},{"id":1},{"id":2}],"edges":[{"u":0,"v":1,"weight":5},{"u":1,"v":2,"weight":6}],` +
			`"edges":[{"u":0}],"edges":[{"v":2},{}]},"k":2}`,
		`{"graph":{"nodes":[{"id":0,"weight":7},{"id":1,"weight":8}],"nodes":[{"id":1},{"id":0}]},"k":2}`,
		`{"graph":{"nodes":[{"id":0},{"id":1}],"edges":[{"u":0,"v":1,"weight":1}],"edges":[]},"k":2}`,
		strings.Replace(everyField, `"options":{`, `"options":{"seed":9},"options":{`, 1),
		strings.Replace(everyField, `"options":{"seed":3,`, `"options":{"seed":3},"options":{`, 1),
		// Number forms.
		strings.Replace(everyField, `"k":2`, `"k":2.0`, 1),
		strings.Replace(everyField, `"k":2`, `"k":2e0`, 1),
		strings.Replace(everyField, `"k":2`, `"k":2E+0`, 1),
		strings.Replace(everyField, `"bmax":100`, `"bmax":-0`, 1),
		strings.Replace(everyField, `"bmax":100`, `"bmax":0100`, 1),
		strings.Replace(everyField, `"bmax":100`, `"bmax":+100`, 1),
		strings.Replace(everyField, `"bmax":100`, `"bmax":-`, 1),
		strings.Replace(everyField, `"bmax":100`, `"bmax":1.`, 1),
		strings.Replace(everyField, `"bmax":100`, `"bmax":9223372036854775807`, 1),
		strings.Replace(everyField, `"bmax":100`, `"bmax":9223372036854775808`, 1),
		strings.Replace(everyField, `"bmax":100`, `"bmax":99999999999999999999999`, 1),
		strings.Replace(everyField, `"seed":3`, `"seed":-9223372036854775808`, 1),
		strings.Replace(everyField, `"seed":3`, `"seed":-9223372036854775809`, 1),
		strings.Replace(everyField, `"k":2`, `"k":"2"`, 1),
		strings.Replace(everyField, `"async":true`, `"async":"true"`, 1),
		strings.Replace(everyField, `"async":true`, `"async":1`, 1),
		strings.Replace(everyField, `"priority":"high"`, `"priority":1`, 1),
		strings.Replace(everyField, `"graph":{`, `"graph":[],"graph":{`, 1),
		strings.Replace(everyField, `"pins":[0,1,2]`, `"pins":{}`, 1),
		// Whole-body framing.
		``,
		` `,
		"\xef\xbb\xbf" + everyField,
		" \t\r\n" + everyField + " \t\r\n",
		everyField + "x",
		everyField + "{}",
		everyField + "null",
		everyField[:len(everyField)-1],
		`[]`,
		`"k"`,
		`{"k":1,}`,
		`{"k" 1}`,
		`{"graph":{"nodes":[{"id":0},]},"k":1}`,
		`{"graph":{"nodes":[{"id":0}],"edges":[]},"k":1,"bogus":{"deep":[1,2]}}`,
	}
	// null in place of each scalar value.
	for _, loc := range scalarValue.FindAllStringSubmatchIndex(everyField, -1) {
		seeds = append(seeds, everyField[:loc[2]]+"null"+everyField[loc[3]:])
	}
	return seeds
}

// FuzzDecodeDifferential runs the schema decoder and the encoding/json
// reference on the same bytes: both accept or both reject, a rejection
// wraps ErrBadRequest, and accepted requests are deeply equal with equal
// cache keys.
func FuzzDecodeDifferential(f *testing.F) {
	for _, b := range append(jobRequestSeeds(), decodeSeeds()...) {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, g, err := DecodeJobRequest(bytes.NewReader(data))
		wantReq, wantG, wantErr := referenceDecode(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decoder err = %v, encoding/json err = %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("rejection %v does not wrap ErrBadRequest", err)
			}
			return
		}
		if !reflect.DeepEqual(req, wantReq) {
			t.Fatalf("decoded %+v, encoding/json decoded %+v", req, wantReq)
		}
		if k, want := req.CacheKey(g), wantReq.CacheKey(wantG); k != want {
			t.Fatalf("cache key %s, encoding/json path %s", k, want)
		}
	})
}

// TestDecodeBodyLimit: a body of exactly MaxBodyBytes decodes, one byte
// more is refused with an error naming the limit, even when the extra
// bytes are whitespace after a valid document.
func TestDecodeBodyLimit(t *testing.T) {
	body := ringBody(8, 2, 0, 0, "")
	pad := func(n int) io.Reader {
		return io.MultiReader(strings.NewReader(body), strings.NewReader(strings.Repeat(" ", n-len(body))))
	}
	if _, _, err := DecodeJobRequest(pad(MaxBodyBytes)); err != nil {
		t.Fatalf("body of exactly %d bytes: %v", MaxBodyBytes, err)
	}
	_, _, err := DecodeJobRequest(pad(MaxBodyBytes + 1))
	if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), strconv.Itoa(MaxBodyBytes)) {
		t.Fatalf("body of %d bytes: err = %v, want ErrBadRequest naming the limit", MaxBodyBytes+1, err)
	}
}
