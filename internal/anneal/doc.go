// Package anneal implements the local-search engine of the paper: simulated
// annealing with the adaptive cooling schedule of Lam and Delosme, adaptive
// move-kind selection, and a zero-temperature quench.
//
// The adaptive schedule treats the cost function as the energy of a
// dynamical system and maximizes the cooling rate subject to maintaining
// quasi-equilibrium; its control law is expressed purely in terms of online
// statistics of the cost signal (acceptance ratio and cost dispersion), so
// the schedule requires no problem-specific tuning — the property the paper
// highlights against tabu search and genetic algorithms. A single scalar
// "quality" knob trades optimization quality for computing time, exactly as
// the tool's user-facing knob described in the abstract.
package anneal
