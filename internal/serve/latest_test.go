package serve

import "repro/internal/core"

// latest returns the most recent epoch's global result and its generation.
func (s *Server) latest() (*core.Result, int64) {
	res, gen, _ := s.Latest("")
	return res, gen
}
