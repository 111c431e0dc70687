package server

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestWireDTOShape is the structural half of the byte-identical-response
// contract. Every exported field of every request and response DTO, and of
// every struct reachable from one, names its wire key in a json tag, so a
// Go rename cannot move the key. No such field is a map (unordered, and an
// invitation to schema drift) or a time.Time (per-request state).
func TestWireDTOShape(t *testing.T) {
	timeType := reflect.TypeOf(time.Time{})
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array || typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		switch {
		case typ == timeType:
			t.Errorf("%s is a time.Time: a timestamp differs on every request", path)
		case typ.Kind() == reflect.Map:
			t.Errorf("%s is a map: DTOs carry typed fields only", path)
		case typ.Kind() == reflect.Struct && !seen[typ]:
			seen[typ] = true
			for _, f := range reflect.VisibleFields(typ) {
				if !f.IsExported() {
					continue
				}
				fpath := typ.Name() + "." + f.Name
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if name == "" {
					t.Errorf("%s has no json tag naming its wire key", fpath)
				}
				if name != "-" {
					walk(fpath, f.Type)
				}
			}
		}
	}
	for _, dto := range []any{
		FleetRequest{}, FleetResponse{},
		RunRequest{}, RunResponse{},
		ThresholdsRequest{}, ThresholdsResponse{},
		errorResponse{}, healthResponse{},
	} {
		typ := reflect.TypeOf(dto)
		walk(typ.Name(), typ)
	}
}
