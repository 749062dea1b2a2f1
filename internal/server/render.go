package server

// Answer bodies (POST /query, GET /views/{id} and the feedback echo) do not
// go through encoding/json. The envelope of a ViewAnswers (id, keywords, k,
// alpha, answers) is appended by hand, and its "columns" and "rows" come
// from core.Materialization.AppendRendered, which renders them once per
// materialisation and keeps the bytes from the second read on. The bytes
// are exactly those json.NewEncoder(w).Encode(ViewAnswers{...}) writes:
// HTML-escaped strings, invalid UTF-8 as \ufffd, ES6 number formatting,
// null for nil slices, and the trailing newline. A non-finite alpha or cost,
// which encoding/json refuses, is answered 500.

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"qint/internal/core"
	"qint/internal/relstore"
)

// scratch is a response body under construction. Every JSON response is
// built in one taken from scratchPool and sent with a single Write.
type scratch struct{ b []byte }

func (s *scratch) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// maxPooledScratch bounds the buffers scratchPool keeps: a rare huge body
// is left to the collector rather than pinned in the pool.
const maxPooledScratch = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.b = s.b[:0]
	return s
}

func putScratch(s *scratch) {
	if cap(s.b) <= maxPooledScratch {
		scratchPool.Put(s)
	}
}

// errNonFinite is the refusal of a NaN or infinite alpha or cost, which
// JSON cannot carry.
var errNonFinite = errors.New("answers carry a non-finite alpha or cost")

// writeAnswers sends the answers of one already-loaded materialisation m of
// v, so a handler that also stamps X-Q-Epoch reports the same generation in
// header and body even under a concurrent refresh.
func writeAnswers(w http.ResponseWriter, status int, v *core.View, m core.Materialization) {
	s := getScratch()
	defer putScratch(s)
	body := appendAnswers(s.b, v, m)
	if body == nil {
		logf("server: encoding view %s answers: %v", viewID(v.ID), errNonFinite)
		httpError(w, http.StatusInternalServerError, "encoding answers: %v", errNonFinite)
		return
	}
	s.b = body
	send(w, status, body)
}

// appendAnswers appends the body of ViewAnswers for m, or returns nil when
// m carries a non-finite alpha or cost.
func appendAnswers(dst []byte, v *core.View, m core.Materialization) []byte {
	if !finite(m.Alpha) {
		return nil
	}
	answers := 0
	if m.Result != nil {
		answers = len(m.Result.Rows)
	}
	dst = append(dst, `{"id":"`...)
	if v.ID >= 0 { // viewID, without its string
		dst = append(dst, 'v')
		dst = strconv.AppendInt(dst, v.ID, 10)
	}
	dst = append(dst, `","keywords":`...)
	dst = appendStrings(dst, v.Keywords)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(v.K), 10)
	dst = append(dst, `,"alpha":`...)
	dst = appendFloat(dst, m.Alpha)
	dst = append(dst, `,"answers":`...)
	dst = strconv.AppendInt(dst, int64(answers), 10)
	dst = append(dst, ',')
	if dst = m.AppendRendered(dst, appendRows); dst == nil {
		return nil
	}
	return append(dst, "}\n"...)
}

// appendRows appends the "columns" and "rows" members of ViewAnswers for r,
// or returns nil when a row's cost is not finite. It is the render of
// core.Materialization.AppendRendered, so it depends on r alone.
func appendRows(dst []byte, r *relstore.UnionResult) []byte {
	if r == nil {
		return append(dst, `"columns":null,"rows":null`...)
	}
	dst = append(dst, `"columns":`...)
	dst = appendStrings(dst, r.Columns)
	dst = append(dst, `,"rows":`...)
	if len(r.Rows) == 0 {
		return append(dst, "null"...)
	}
	for i, row := range r.Rows {
		if !finite(row.Cost) {
			return nil
		}
		if i == 0 {
			dst = append(dst, `[{"values":`...)
		} else {
			dst = append(dst, `,{"values":`...)
		}
		dst = appendStrings(dst, row.Values)
		dst = append(dst, `,"cost":`...)
		dst = appendFloat(dst, row.Cost)
		dst = append(dst, `,"provenance":`...)
		dst = appendString(dst, row.Provenance)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendStrings appends ss as a JSON array, or null when ss is nil.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloat appends a finite f as encoding/json does (ES6 number to
// string): 'f' format, 'e' below 1e-6 and from 1e21, and an exponent
// e-0X shortened to e-X.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json escapes
// it: '"' and '\\' backslashed, \b \f \n \r \t by name, the other control
// bytes and the HTML characters < > & as \u00XX, each invalid UTF-8 byte
// as \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
