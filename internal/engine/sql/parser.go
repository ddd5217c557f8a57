package sql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
	pos  int
	src  string
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(input string) (Stmt, error) {
	toks, err := lexPooled(input)
	defer releaseTokens(toks)
	if err != nil {
		return nil, err
	}
	return parseTokens(input, *toks)
}

// parseTokens parses the statement input lexed into toks.
func parseTokens(input string, toks []Token) (Stmt, error) {
	p := &Parser{toks: toks, src: input}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return stmt, nil
}

// parseRowStreamHead parses the head of an INSERT with nothing after it,
// INSERT INTO <table>: the statement a row stream is appended under (the
// wire protocol's StmtFlagRows).
func parseRowStreamHead(input string, toks []Token) (Stmt, error) {
	p := &Parser{toks: toks, src: input}
	if _, err := p.expect(TokKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected input %q after the table of a row stream", p.cur().Text)
	}
	return &InsertStmt{Table: name}, nil
}

// ParseSelect parses a SELECT statement, rejecting other statement kinds.
func ParseSelect(input string) (*SelectStmt, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return sel, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, p.errf("expected %s, found %q", want, p.cur().Text)
}

func (p *Parser) errf(format string, args ...any) error {
	pos := p.cur().Pos
	// Show a short context window around the error position.
	lo := pos - 20
	if lo < 0 {
		lo = 0
	}
	hi := pos + 20
	if hi > len(p.src) {
		hi = len(p.src)
	}
	return fmt.Errorf("sql: %s (near offset %d: …%s…)", fmt.Sprintf(format, args...), pos, p.src[lo:hi])
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(TokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(TokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(TokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(TokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(TokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(TokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(TokKeyword, "EXPLAIN"):
		p.next()
		analyze := false
		if p.at(TokKeyword, "ANALYZE") {
			p.next()
			analyze = true
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel, Analyze: analyze}, nil
	case p.at(TokKeyword, "KILL"):
		p.next()
		origin := p.accept(TokKeyword, "ORIGIN")
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		id, perr := strconv.ParseUint(t.Text, 10, 64)
		if perr != nil || id == 0 {
			return nil, p.errf("KILL wants a positive query id, got %q", t.Text)
		}
		return &KillStmt{ID: id, Origin: origin}, nil
	default:
		return nil, p.errf("expected a statement, found %q", p.cur().Text)
	}
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.accept(TokKeyword, "DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}

	if p.accept(TokKeyword, "FROM") {
		from, err := p.parseTableRefs()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{E: e}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.Text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: ident '.' '*'
	if p.at(TokIdent, "") && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		table := p.next().Text
		p.next() // '.'
		p.next() // '*'
		return SelectItem{Star: true, StarTable: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		t, err := p.expectIdentLike()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t
	} else if p.at(TokIdent, "") {
		item.Alias = p.next().Text
	}
	return item, nil
}

// expectIdentLike accepts identifiers and non-reserved keyword spellings as
// names (aliases like "output" or "model" are common in the generated SQL).
func (p *Parser) expectIdentLike() (string, error) {
	if p.at(TokIdent, "") {
		return p.next().Text, nil
	}
	if p.cur().Kind == TokKeyword {
		switch p.cur().Text {
		case "MODEL", "VALUES", "DEVICE", "PREDICT": // soft keywords
			return strings.ToLower(p.next().Text), nil
		}
	}
	return "", p.errf("expected identifier, found %q", p.cur().Text)
}

// parseTableName parses a possibly qualified table name (t, system.queries,
// "system".queries): one optional schema qualifier folded into the catalog
// lookup name, which is how the virtual system tables are addressed. Used
// everywhere a statement names a table — FROM, CREATE, INSERT, DELETE,
// UPDATE, DROP — so a user table that shadows a system name can be created
// and dropped through SQL too.
func (p *Parser) parseTableName() (string, error) {
	name, err := p.expectIdentLike()
	if err != nil {
		return "", err
	}
	if p.accept(TokOp, ".") {
		rest, err := p.expectIdentLike()
		if err != nil {
			return "", err
		}
		name = name + "." + rest
	}
	return name, nil
}

func (p *Parser) parseTableRefs() (TableRef, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	for p.accept(TokOp, ",") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Left: left, Right: right}
	}
	return left, nil
}

// parseJoinChain parses a primary ref followed by JOIN / MODEL JOIN chains.
func (p *Parser) parseJoinChain() (TableRef, error) {
	left, err := p.parsePrimaryRef()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokKeyword, "JOIN"):
			p.next()
			right, err := p.parsePrimaryRef()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			left = &JoinRef{Left: left, Right: right, On: on}
		case p.at(TokKeyword, "MODEL") && p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text == "JOIN":
			p.next()
			p.next()
			name, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			mj := &ModelJoinRef{Fact: left, ModelName: name}
			if p.accept(TokKeyword, "PREDICT") {
				if _, err := p.expect(TokOp, "("); err != nil {
					return nil, err
				}
				for {
					col, err := p.expectIdentLike()
					if err != nil {
						return nil, err
					}
					mj.Inputs = append(mj.Inputs, col)
					if !p.accept(TokOp, ",") {
						break
					}
				}
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
			}
			if p.accept(TokKeyword, "USING") {
				if _, err := p.expect(TokKeyword, "DEVICE"); err != nil {
					return nil, err
				}
				t, err := p.expect(TokString, "")
				if err != nil {
					return nil, err
				}
				mj.Device = strings.ToLower(t.Text)
			}
			left = mj
		default:
			return left, nil
		}
	}
}

func (p *Parser) parsePrimaryRef() (TableRef, error) {
	if p.accept(TokOp, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		p.accept(TokKeyword, "AS")
		alias, err := p.expectIdentLike()
		if err != nil {
			return nil, p.errf("subquery in FROM requires an alias")
		}
		return &SubqueryRef{Select: sel, Alias: alias}, nil
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ref := &BaseTable{Name: name}
	if p.accept(TokKeyword, "AS") {
		alias, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.at(TokIdent, "") {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// --- expression grammar: OR > AND > NOT > comparison/BETWEEN > add > mul > unary > primary ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept(TokKeyword, "IS") {
		not := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	}
	if not := p.accept(TokKeyword, "NOT"); not || p.at(TokKeyword, "BETWEEN") || p.at(TokKeyword, "IN") {
		// [NOT] IN (list)
		if p.accept(TokKeyword, "IN") {
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			in := &InExpr{E: l, Not: not}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return in, nil
		}
		if _, err := p.expect(TokKeyword, "BETWEEN"); err != nil {
			return nil, err
		}
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: not}, nil
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.accept(TokOp, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokOp, "+"):
			op = "+"
		case p.accept(TokOp, "-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(TokOp, "*"):
			op = "*"
		case p.accept(TokOp, "/"):
			op = "/"
		case p.accept(TokOp, "%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(TokOp, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// A minus applied directly to a numeric literal is part of the
		// literal, so -9223372036854775808 is the smallest BIGINT rather
		// than the negation of an out-of-range literal.
		if num, ok := e.(*NumberLit); ok && num.Text[0] != '-' {
			return &NumberLit{Text: "-" + num.Text}, nil
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	p.accept(TokOp, "+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.next()
		return &NumberLit{Text: t.Text}, nil
	case t.Kind == TokString:
		p.next()
		return &StringLit{Val: t.Text}, nil
	case p.accept(TokKeyword, "TRUE"):
		return &BoolLit{Val: true}, nil
	case p.accept(TokKeyword, "FALSE"):
		return &BoolLit{Val: false}, nil
	case p.accept(TokKeyword, "NULL"):
		return &NullLit{}, nil
	case p.accept(TokKeyword, "CASE"):
		return p.parseCase()
	case p.accept(TokKeyword, "CAST"):
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AS"); err != nil {
			return nil, err
		}
		typ, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &CastExpr{E: e, Type: typ}, nil
	case p.accept(TokOp, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		p.next()
		// Function call?
		if p.accept(TokOp, "(") {
			fc := &FuncCall{Name: strings.ToUpper(t.Text)}
			if p.accept(TokOp, "*") {
				fc.Star = true
			} else if !p.at(TokOp, ")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, arg)
					if !p.accept(TokOp, ",") {
						break
					}
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified identifier?
		if p.accept(TokOp, ".") {
			name, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			return &Ident{Table: t.Text, Name: name}, nil
		}
		return &Ident{Name: t.Text}, nil
	case t.Kind == TokKeyword && (t.Text == "MODEL" || t.Text == "DEVICE" || t.Text == "PREDICT" ||
		t.Text == "SHARD" || t.Text == "META" || t.Text == "ORIGIN"):
		// Soft keywords usable as bare column references.
		p.next()
		name := strings.ToLower(t.Text)
		if p.accept(TokOp, ".") {
			col, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			return &Ident{Table: name, Name: col}, nil
		}
		return &Ident{Name: name}, nil
	}
	return nil, p.errf("expected an expression, found %q", t.Text)
}

func (p *Parser) parseCase() (Expr, error) {
	c := &CaseExpr{}
	for p.accept(TokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.accept(TokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(TokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseTypeName() (string, error) {
	t, err := p.expectIdentLike()
	if err != nil {
		return "", err
	}
	// Swallow optional length/precision arguments: VARCHAR(20), etc.
	if p.accept(TokOp, "(") {
		for !p.at(TokOp, ")") && !p.at(TokEOF, "") {
			p.next()
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return "", err
		}
	}
	return t, nil
}

// atSoftWord reports whether the current token is the given soft keyword:
// a word the lexer leaves as a plain identifier (ALERT, FOR) so it stays
// usable as a column or table name everywhere else.
func (p *Parser) atSoftWord(word string) bool {
	return p.cur().Kind == TokIdent && strings.EqualFold(p.cur().Text, word)
}

func (p *Parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	if p.atSoftWord("ALERT") {
		return p.parseCreateAlert()
	}
	isModel := p.accept(TokKeyword, "MODEL")
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name, Model: isModel}
	if !isModel {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, ColDef{Name: col, Type: typ})
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
	}
	for {
		switch {
		case p.accept(TokKeyword, "PARTITIONS"):
			t, err := p.expect(TokNumber, "")
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(t.Text)
			if err != nil || n <= 0 {
				return nil, p.errf("invalid PARTITIONS %q", t.Text)
			}
			stmt.Partitions = n
		case p.accept(TokKeyword, "SORTED"):
			if _, err := p.expect(TokKeyword, "BY"); err != nil {
				return nil, err
			}
			col, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			stmt.SortedBy = col
		case p.accept(TokKeyword, "SHARD"):
			if isModel {
				return nil, p.errf("model tables are replicated, not sharded")
			}
			if _, err := p.expect(TokKeyword, "BY"); err != nil {
				return nil, err
			}
			// Parenthesized or bare single column: SHARD BY (col) / SHARD BY col.
			paren := p.accept(TokOp, "(")
			col, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			if paren {
				if _, err := p.expect(TokOp, ")"); err != nil {
					return nil, err
				}
			}
			stmt.ShardBy = col
		case p.accept(TokKeyword, "META"):
			if !isModel {
				return nil, p.errf("META is only valid on CREATE MODEL TABLE")
			}
			t, err := p.expect(TokString, "")
			if err != nil {
				return nil, err
			}
			stmt.MetaJSON = t.Text
		default:
			return stmt, nil
		}
	}
}

func (p *Parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	if p.accept(TokOp, "(") {
		for {
			col, err := p.expectIdentLike()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	first := p.pos
	for {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		for {
			cell, err := p.parseCell()
			if err != nil {
				return nil, err
			}
			stmt.Cells = append(stmt.Cells, cell)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, len(stmt.Cells))
		if !p.accept(TokOp, ",") {
			break
		}
		if len(stmt.Rows) == 1 {
			// Size both slices once for rows spelled like the first.
			rows := (len(p.toks) - first) / (p.pos - first)
			stmt.Cells = slices.Grow(stmt.Cells, rows*len(stmt.Cells))
			stmt.Rows = slices.Grow(stmt.Rows, rows)
		}
	}
	return stmt, nil
}

// parseCell parses one VALUES cell. A cell that is one literal token — a
// number, optionally signed, a string, NULL, TRUE or FALSE — followed by
// the ',' or ')' that ends it is kept as that token; any other cell is
// parsed as an expression.
func (p *Parser) parseCell() (Cell, error) {
	start := p.pos
	t, lit := p.cur(), true
	switch {
	case t.Kind == TokOp && (t.Text == "-" || t.Text == "+") && p.toks[p.pos+1].Kind == TokNumber:
		t = p.signedNumber(p.next())
	case t.Kind == TokNumber || t.Kind == TokString ||
		t.Kind == TokKeyword && (t.Text == "NULL" || t.Text == "TRUE" || t.Text == "FALSE"):
		p.next()
	default:
		lit = false
	}
	if lit && (p.at(TokOp, ",") || p.at(TokOp, ")")) {
		return Cell{Lit: t.Kind, Text: t.Text}, nil
	}
	p.pos = start
	e, err := p.parseExpr()
	return Cell{Expr: e}, err
}

// signedNumber consumes the number token after the sign token sign and
// returns it as one number token carrying a minus, as parseUnary binds it;
// a minus written next to its number keeps the input's substring.
func (p *Parser) signedNumber(sign Token) Token {
	num := p.next()
	switch {
	case sign.Text == "+":
	case sign.Pos+1 == num.Pos:
		num.Text = p.src[sign.Pos : num.Pos+len(num.Text)]
	default:
		num.Text = "-" + num.Text
	}
	num.Pos = sign.Pos
	return num
}

func (p *Parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *Parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	for {
		col, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col)
		stmt.Exprs = append(stmt.Exprs, e)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *Parser) parseDrop() (Stmt, error) {
	p.next() // DROP
	if p.atSoftWord("ALERT") {
		p.next()
		name, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		return &DropAlertStmt{Name: name}, nil
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name}, nil
}

// parseCreateAlert parses the tail of CREATE ALERT name ON <signal> <op>
// <threshold> [FOR <duration>]; see CreateAlertStmt for the grammar.
func (p *Parser) parseCreateAlert() (Stmt, error) {
	p.next() // ALERT
	name, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	stmt := &CreateAlertStmt{Name: name}
	sig, err := p.expectIdentLike()
	if err != nil {
		return nil, err
	}
	if p.accept(TokOp, "(") {
		fn := strings.ToLower(sig)
		switch fn {
		case "rate", "p50", "p99":
		default:
			return nil, p.errf("unknown alert function %q (want rate, p50, or p99)", sig)
		}
		stmt.Fn = fn
		m, err := p.expectIdentLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		stmt.Metric = m
	} else {
		stmt.Metric = sig
	}
	op := p.cur()
	if op.Kind != TokOp || (op.Text != ">" && op.Text != "<" && op.Text != ">=" && op.Text != "<=") {
		return nil, p.errf("expected a comparison operator (> < >= <=), found %q", op.Text)
	}
	p.next()
	stmt.Op = op.Text
	neg := p.accept(TokOp, "-")
	t, err := p.expect(TokNumber, "")
	if err != nil {
		return nil, err
	}
	thr, perr := strconv.ParseFloat(t.Text, 64)
	if perr != nil {
		return nil, p.errf("invalid alert threshold %q", t.Text)
	}
	if neg {
		thr = -thr
	}
	stmt.Threshold = thr
	if p.atSoftWord("FOR") {
		p.next()
		d, err := p.parseDuration()
		if err != nil {
			return nil, err
		}
		stmt.For = d
	}
	return stmt, nil
}

// parseDuration accepts 10s / 500ms / 1m30s (lexed as number + unit
// identifier), a bare number of seconds, or a quoted Go duration string.
func (p *Parser) parseDuration() (time.Duration, error) {
	if p.cur().Kind == TokString {
		d, err := time.ParseDuration(p.next().Text)
		if err != nil || d < 0 {
			return 0, p.errf("invalid duration: %v", err)
		}
		return d, nil
	}
	t, err := p.expect(TokNumber, "")
	if err != nil {
		return 0, err
	}
	if p.cur().Kind == TokIdent {
		d, derr := time.ParseDuration(t.Text + p.next().Text)
		if derr != nil || d < 0 {
			return 0, p.errf("invalid duration %q", t.Text)
		}
		return d, nil
	}
	secs, perr := strconv.ParseFloat(t.Text, 64)
	if perr != nil || secs < 0 {
		return 0, p.errf("invalid duration %q", t.Text)
	}
	return time.Duration(secs * float64(time.Second)), nil
}
