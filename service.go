package cachemap

import (
	"io"
	"net/http"

	"repro/internal/mapping"
	"repro/internal/server"
)

// Mapping as a service: the mapper packaged as a long-running daemon core
// (cmd/cachemapd) with a JSON API, a content-addressed plan cache and
// Prometheus metrics. NewService embeds the same handler the daemon
// serves, so libraries and tests can run the full API in process (see
// Example_service).

// Serving subsystem types.
type (
	// ServiceConfig tunes the daemon core (worker pool size, plan cache
	// capacity, request deadline).
	ServiceConfig = server.Config
	// WorkloadSpec names the workload a request maps (app | synth |
	// stencil).
	WorkloadSpec = server.WorkloadSpec
	// MapRequest is the body of POST /v1/map.
	MapRequest = server.MapRequest
	// MapResponse is the body returned by POST /v1/map.
	MapResponse = server.MapResponse
	// SimRequest is the body of POST /v1/simulate.
	SimRequest = server.SimRequest
	// SimResponse is the body returned by POST /v1/simulate.
	SimResponse = server.SimResponse
	// Plan is the versioned, serializable wire form of a computed mapping.
	Plan = mapping.Plan
	// PlanBlock is one scheduled unit of work inside a Plan.
	PlanBlock = mapping.PlanBlock
)

// PlanSchemaVersion is the wire-format version written into every Plan.
const PlanSchemaVersion = mapping.PlanSchemaVersion

// Service is the mapping-as-a-service daemon core: compute mappings on
// demand over HTTP, memoize them in a content-addressed LRU plan cache,
// and expose operational metrics. It is safe for concurrent use.
type Service struct {
	srv *server.Server
}

// NewService builds a service; the zero ServiceConfig uses production
// defaults (GOMAXPROCS workers, 512-plan cache, 30s request deadline). It
// fails only when the persistent plan store directory (Store.Dir) is
// unusable.
func NewService(cfg ServiceConfig) (*Service, error) {
	srv, err := server.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return &Service{srv: srv}, nil
}

// Handler returns the HTTP handler serving POST /v1/map, POST
// /v1/simulate, GET /healthz and GET /metrics.
func (s *Service) Handler() http.Handler { return s.srv.Handler() }

// ComputePlan resolves one mapping request in process, through the same
// validation, worker pool and plan cache as the HTTP API.
func (s *Service) ComputePlan(req MapRequest) (*MapResponse, error) {
	return s.srv.ComputePlan(req)
}

// WriteMetrics renders the service's metrics in the Prometheus text
// exposition format.
func (s *Service) WriteMetrics(w io.Writer) {
	s.srv.Registry().WritePrometheus(w)
}

// DecodeAssignment reconstructs the executable per-client work lists from
// a plan received off the wire.
func DecodeAssignment(p Plan) (Assignment, error) { return p.Assignment() }
