// Package lubm generates synthetic university knowledge graphs in the
// shape of the Lehigh University Benchmark (LUBM [4]), which the paper
// uses for datasets D0–D5 (§6.1, Table 2), together with the five
// substructure constraints S1–S5 of Table 3.
//
// The generator is written from scratch (the original UBA tool is Java
// and not redistributable here); what matters to the paper's experiments
// is preserved and asserted by tests:
//
//   - the ontology shape (universities → departments → faculty, students,
//     courses, research groups, publications) and the ub:* properties
//     S1–S5 reference;
//   - the selectivity ratios of §6.1: |V(S2)|/|V(S1)| ≈ 50%,
//     |V(S3)|/|V(S1)| ≈ 120, |V(S4)| ≈ |V(S1)|, |V(S5)| = 1;
//   - graph density |E|/|V| ≈ 3.5, matching Table 2's D1–D5.
package lubm

import (
	"fmt"
	"math/rand"

	"lscr/internal/graph"
	"lscr/internal/rdf"
)

// Property and class names (the ub: vocabulary used by Table 3).
const (
	ClassUniversity           = "ub:University"
	ClassDepartment           = "ub:Department"
	ClassFullProfessor        = "ub:FullProfessor"
	ClassAssociateProfessor   = "ub:AssociateProfessor"
	ClassAssistantProfessor   = "ub:AssistantProfessor"
	ClassLecturer             = "ub:Lecturer"
	ClassUndergraduateStudent = "ub:UndergraduateStudent"
	ClassGraduateStudent      = "ub:GraduateStudent"
	ClassCourse               = "ub:Course"
	ClassGraduateCourse       = "ub:GraduateCourse"
	ClassResearchGroup        = "ub:ResearchGroup"
	ClassPublication          = "ub:Publication"

	PropWorksFor          = "ub:worksFor"
	PropMemberOf          = "ub:memberOf"
	PropSubOrganizationOf = "ub:subOrganizationOf"
	PropTakesCourse       = "ub:takesCourse"
	PropTeacherOf         = "ub:teacherOf"
	PropAdvisor           = "ub:advisor"
	PropPublicationAuthor = "ub:publicationAuthor"
	PropResearchInterest  = "ub:researchInterest"
	PropName              = "ub:name"
	PropEmailAddress      = "ub:emailAddress"
	PropUndergradDegree   = "ub:undergraduateDegreeFrom"
	PropMastersDegree     = "ub:mastersDegreeFrom"
	PropDoctoralDegree    = "ub:doctoralDegreeFrom"
	PropHeadOf            = "ub:headOf"
	PropTeachingAssistant = "ub:teachingAssistantOf"

	// Materialised inverse organisational properties. The original UBA
	// emits only person->organisation edges, leaving organisations as
	// sinks; RDF stores (and the paper's SPARQL substrate [20]) reason
	// over inverse closures, and the paper's passed-vertex counts
	// (~10^6 on a 3.7M-vertex KG) are only possible when organisations
	// fan back out, so the generator adds them where UBA does not.
	PropHasMember          = "ub:hasMember"
	PropHasSubOrganization = "ub:hasSubOrganization"
)

// Config parametrises the generator. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Universities scales the dataset; every university gets
	// DeptsPerUniversity departments.
	Universities int
	Seed         int64

	// Per-department cardinalities. The defaults reproduce the §6.1
	// selectivity ratios; tests assert them.
	DeptsPerUniversity       int
	FullProfessors           int
	AssocProfessors          int
	AssistProfessors         int
	Lecturers                int
	UndergradsPerDept        int
	GradsPerDept             int
	ResearchGroups           int
	PublicationsPerProfessor int

	// ResearchInterests is the number of distinct 'ResearchN' topics.
	ResearchInterests int
}

// DefaultConfig returns the tuned configuration for n universities.
func DefaultConfig(n int) Config {
	return Config{
		Universities:             n,
		Seed:                     1,
		DeptsPerUniversity:       20,
		FullProfessors:           7,
		AssocProfessors:          14,
		AssistProfessors:         5,
		Lecturers:                3,
		UndergradsPerDept:        104,
		GradsPerDept:             30,
		ResearchGroups:           10,
		PublicationsPerProfessor: 3,
		ResearchInterests:        30,
	}
}

// edgesPerUniversity is the measured edge yield of one DefaultConfig
// university (≈26457; ConfigForEdges rounds it down so the estimate
// errs toward generating more edges than asked for, never fewer).
const edgesPerUniversity = 26000

// ConfigForEdges returns a DefaultConfig scaled so the generated graph
// has at least edges edges — the sizing knob of the scale benchmark
// tier and kggen's -edges flag. The university count is the unit of
// granularity, so the result overshoots by up to one university's worth.
func ConfigForEdges(edges int) Config {
	n := (edges + edgesPerUniversity - 1) / edgesPerUniversity
	if n < 1 {
		n = 1
	}
	return DefaultConfig(n)
}

// Generate builds the knowledge graph.
func Generate(cfg Config) *graph.Graph {
	if cfg.Universities < 1 {
		cfg.Universities = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()
	g := &gen{cfg: cfg, rng: rng, b: b}
	g.ontology()
	for u := 0; u < cfg.Universities; u++ {
		g.university(u)
	}
	return b.Build()
}

type gen struct {
	cfg Config
	rng *rand.Rand
	b   *graph.Builder
}

// triple adds an RDF triple as a labeled edge, the same way the loader
// (rdf.Load) does, so a generated KG and a file-loaded one agree.
func (g *gen) triple(s, p, o string) {
	g.b.AddEdgeNames(s, p, o)
}

// ontology emits the class hierarchy and property domains — the LS part
// of the KG, which INS's landmark selection consumes.
func (g *gen) ontology() {
	classes := []string{
		ClassUniversity, ClassDepartment, ClassFullProfessor,
		ClassAssociateProfessor, ClassAssistantProfessor, ClassLecturer,
		ClassUndergraduateStudent, ClassGraduateStudent, ClassCourse,
		ClassGraduateCourse, ClassResearchGroup, ClassPublication,
	}
	for _, c := range classes {
		g.triple(c, rdf.TypePredicate, rdf.ClassTerm)
	}
	for _, c := range []string{ClassFullProfessor, ClassAssociateProfessor, ClassAssistantProfessor} {
		g.triple(c, rdf.SubClassOfPredicate, "ub:Professor")
	}
	g.triple(ClassGraduateCourse, rdf.SubClassOfPredicate, ClassCourse)
	g.triple(PropWorksFor, rdf.DomainPredicate, "ub:Professor")
	g.triple(PropWorksFor, rdf.RangePredicate, ClassDepartment)
	g.triple(PropTakesCourse, rdf.RangePredicate, ClassCourse)
	g.triple(PropTeacherOf, rdf.RangePredicate, ClassCourse)
}

func (g *gen) university(u int) {
	univ := fmt.Sprintf("University%d", u)
	g.triple(univ, rdf.TypePredicate, ClassUniversity)
	for d := 0; d < g.cfg.DeptsPerUniversity; d++ {
		g.department(univ, u, d)
	}
}

func (g *gen) department(univ string, u, d int) {
	cfg := g.cfg
	dept := fmt.Sprintf("Department%d.%s", d, univ)
	g.triple(dept, rdf.TypePredicate, ClassDepartment)
	g.triple(dept, PropSubOrganizationOf, univ)
	g.triple(univ, PropHasSubOrganization, dept)

	var faculty []string    // all teaching staff
	var professors []string // interest-bearing staff
	addFaculty := func(class, base string, n int) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("%s%d.%s", base, i, dept)
			g.triple(name, rdf.TypePredicate, class)
			g.triple(name, PropWorksFor, dept)
			g.triple(dept, PropHasMember, name)
			g.triple(name, PropName, literal(fmt.Sprintf("%s%d", base, i)))
			g.triple(name, PropEmailAddress,
				literal(fmt.Sprintf("%s%d@Department%d.%s.edu", base, i, d, univ)))
			g.triple(name, PropUndergradDegree, g.someUniversity(univ))
			g.triple(name, PropMastersDegree, g.someUniversity(univ))
			g.triple(name, PropDoctoralDegree, g.someUniversity(univ))
			faculty = append(faculty, name)
			if class != ClassLecturer {
				g.triple(name, PropResearchInterest,
					literal(fmt.Sprintf("Research%d", g.rng.Intn(cfg.ResearchInterests))))
				professors = append(professors, name)
			}
		}
	}
	addFaculty(ClassFullProfessor, "FullProfessor", cfg.FullProfessors)
	addFaculty(ClassAssociateProfessor, "AssociateProfessor", cfg.AssocProfessors)
	addFaculty(ClassAssistantProfessor, "AssistantProfessor", cfg.AssistProfessors)
	addFaculty(ClassLecturer, "Lecturer", cfg.Lecturers)

	// The first full professor heads the department.
	if len(faculty) > 0 {
		g.triple(faculty[0], PropHeadOf, dept)
	}

	// Courses: each faculty member teaches one or two.
	var courses, gradCourses []string
	for i, f := range faculty {
		n := 1 + g.rng.Intn(2)
		for j := 0; j < n; j++ {
			var course, class string
			if g.rng.Intn(3) == 0 {
				course = fmt.Sprintf("GraduateCourse%d_%d.%s", i, j, dept)
				class = ClassGraduateCourse
				gradCourses = append(gradCourses, course)
			} else {
				course = fmt.Sprintf("Course%d_%d.%s", i, j, dept)
				class = ClassCourse
				courses = append(courses, course)
			}
			g.triple(course, rdf.TypePredicate, class)
			g.triple(f, PropTeacherOf, course)
		}
	}
	if len(courses) == 0 {
		// Degenerate tiny configs: guarantee at least one plain course.
		course := "Course0_0." + dept
		g.triple(course, rdf.TypePredicate, ClassCourse)
		g.triple(faculty[0], PropTeacherOf, course)
		courses = append(courses, course)
	}

	// Research groups.
	for i := 0; i < cfg.ResearchGroups; i++ {
		grp := fmt.Sprintf("ResearchGroup%d.%s", i, dept)
		g.triple(grp, rdf.TypePredicate, ClassResearchGroup)
		g.triple(grp, PropSubOrganizationOf, dept)
	}

	// Undergraduates: S3 requires type UndergraduateStudent + takesCourse
	// a plain ub:Course.
	for i := 0; i < cfg.UndergradsPerDept; i++ {
		s := fmt.Sprintf("UndergraduateStudent%d.%s", i, dept)
		g.triple(s, rdf.TypePredicate, ClassUndergraduateStudent)
		g.triple(s, PropMemberOf, dept)
		g.triple(dept, PropHasMember, s)
		g.triple(s, PropName, literal(fmt.Sprintf("UndergraduateStudent%d", i)))
		g.triple(s, PropTakesCourse, courses[g.rng.Intn(len(courses))])
		if g.rng.Intn(2) == 0 {
			g.triple(s, PropTakesCourse, g.pickCourse(courses, gradCourses))
		}
	}

	// Graduate students: S4 requires ub:name 'GraduateStudent4',
	// takesCourse, advisor (teaching, employed), memberOf a department
	// that is a sub-organization.
	for i := 0; i < cfg.GradsPerDept; i++ {
		s := fmt.Sprintf("GraduateStudent%d.%s", i, dept)
		g.triple(s, rdf.TypePredicate, ClassGraduateStudent)
		g.triple(s, PropMemberOf, dept)
		g.triple(dept, PropHasMember, s)
		g.triple(s, PropName, literal(fmt.Sprintf("GraduateStudent%d", i)))
		g.triple(s, PropAdvisor, professors[g.rng.Intn(len(professors))])
		g.triple(s, PropUndergradDegree, g.someUniversity(univ))
		nc := 1 + g.rng.Intn(2)
		for j := 0; j < nc; j++ {
			g.triple(s, PropTakesCourse, g.pickCourse(courses, gradCourses))
		}
		if i == 0 && len(courses) > 0 {
			g.triple(s, PropTeachingAssistant, courses[g.rng.Intn(len(courses))])
		}
	}

	// Publications by professors.
	for i, p := range professors {
		for j := 0; j < cfg.PublicationsPerProfessor; j++ {
			pub := fmt.Sprintf("Publication%d_%d.%s", i, j, dept)
			g.triple(pub, rdf.TypePredicate, ClassPublication)
			g.triple(pub, PropPublicationAuthor, p)
		}
	}
}

// someUniversity returns a university name, usually the local one but
// sometimes another, creating cross-university edges.
func (g *gen) someUniversity(local string) string {
	if g.cfg.Universities > 1 && g.rng.Intn(4) == 0 {
		return fmt.Sprintf("University%d", g.rng.Intn(g.cfg.Universities))
	}
	return local
}

func (g *gen) pickCourse(courses, gradCourses []string) string {
	if len(gradCourses) > 0 && g.rng.Intn(4) == 0 {
		return gradCourses[g.rng.Intn(len(gradCourses))]
	}
	return courses[g.rng.Intn(len(courses))]
}

// literal names the vertex a literal value interns to. The substrate
// stores literals as ordinary vertices keyed by their content, which is
// exactly how the sparql package resolves quoted terms like 'Research12',
// so the identity mapping is the correct one.
func literal(s string) string { return s }
