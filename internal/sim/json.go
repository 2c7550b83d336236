package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
)

// MarshalJSON encodes Results with non-finite floats sanitized to null.
// Some fields are legitimately non-finite in degenerate runs — DelayCI
// is +Inf when fewer than two batch-means batches complete — and
// encoding/json rejects ±Inf/NaN outright, so the raw struct would fail
// to encode at all. Field names and order match the default encoding.
func (r Results) MarshalJSON() ([]byte, error) {
	return marshalSanitized(reflect.ValueOf(r))
}

// marshalSanitized walks structs, slices and pointers, replacing every
// non-finite float leaf with null and delegating all other leaves to
// encoding/json. It only follows the shapes Results contains; maps and
// other kinds are delegated wholesale.
func marshalSanitized(v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return []byte("null"), nil
		}
		return json.Marshal(f)
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return []byte("null"), nil
		}
		return marshalSanitized(v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return []byte("null"), nil
		}
		fallthrough
	case reflect.Array:
		var b bytes.Buffer
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			enc, err := marshalSanitized(v.Index(i))
			if err != nil {
				return nil, err
			}
			b.Write(enc)
		}
		b.WriteByte(']')
		return b.Bytes(), nil
	case reflect.Struct:
		var b bytes.Buffer
		b.WriteByte('{')
		t := v.Type()
		first := true
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			name, err := json.Marshal(t.Field(i).Name)
			if err != nil {
				return nil, err
			}
			b.Write(name)
			b.WriteByte(':')
			enc, err := marshalSanitized(v.Field(i))
			if err != nil {
				return nil, err
			}
			b.Write(enc)
		}
		b.WriteByte('}')
		return b.Bytes(), nil
	default:
		return json.Marshal(v.Interface())
	}
}
