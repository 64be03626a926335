// GL030 hot-path allocation: inside functions annotated `// geoanon: hot`,
// flag operator new, make_unique/make_shared, std::function construction,
// unreserved local vectors (util::Bytes and util::ByteWriter included), and
// container growth inside loops. The hot set is
// opt-in per function definition (the annotation must sit at the definition,
// not the declaration — the pass is per-file). ROADMAP item 1 (100k–1M node
// kernel) is the reason this discipline exists; DESIGN.md §13 documents it.

#include <algorithm>

#include "internal.hpp"

namespace geoanon::lint::internal {

namespace {

bool has_reserve(const std::vector<Token>& toks, const FunctionBody& fn,
                 const std::string& name) {
    for (std::size_t i = fn.open + 1; i + 2 < fn.close; ++i) {
        if (toks[i].is_ident && toks[i].text == name && toks[i + 1].text == "." &&
            toks[i + 2].text == "reserve")
            return true;
    }
    return false;
}

void check_hot_function(const std::string& path, const std::vector<Token>& toks,
                        const FunctionBody& fn, std::vector<Finding>& out) {
    const std::string where = " in hot function '" + fn.name + "'";
    for (std::size_t i = fn.open + 1; i < fn.close; ++i) {
        const Token& t = toks[i];
        if (!t.is_ident) continue;

        if (t.text == "new") {
            out.push_back({Rule::kHotAlloc, path, t.line,
                           "operator new" + where +
                               ": per-event heap allocation; hoist the buffer "
                               "or use an arena"});
        } else if (t.text == "make_unique" || t.text == "make_shared") {
            out.push_back({Rule::kHotAlloc, path, t.line,
                           t.text + where +
                               ": per-event heap allocation; pool or reuse the "
                               "object"});
        } else if (t.text == "function" && i >= 2 && toks[i - 1].text == ":" &&
                   toks[i - 2].text == ":" && i >= 3 &&
                   toks[i - 3].text == "std") {
            out.push_back({Rule::kHotAlloc, path, t.line,
                           "std::function" + where +
                               ": type-erased callables allocate; take a "
                               "template parameter or a bound member instead"});
        } else if ((t.text == "vector" && i + 1 < fn.close && toks[i + 1].text == "<") ||
                   t.text == "Bytes" || t.text == "ByteWriter") {
            // Local vector declaration without a later reserve(). util::Bytes
            // is a vector and util::ByteWriter owns one, so both count.
            const std::size_t close = t.text == "vector" ? match_angle(toks, i + 1) : i;
            if (close >= fn.close) continue;
            std::size_t j = close + 1;
            while (j < fn.close &&
                   (toks[j].text == "&" || toks[j].text == "*" ||
                    toks[j].text == "const"))
                ++j;
            if (j >= fn.close || !toks[j].is_ident) continue;
            // A reference binding is not an allocation.
            bool is_ref = false;
            for (std::size_t k = close + 1; k < j; ++k)
                if (toks[k].text == "&") is_ref = true;
            if (is_ref) continue;
            const std::string& name = toks[j].text;
            if (!has_reserve(toks, fn, name)) {
                out.push_back({Rule::kHotAlloc, path, toks[j].line,
                               "local " + t.text + " '" + name + "'" + where +
                                   " never calls reserve(): growth reallocates "
                                   "per event; reserve to the known bound"});
            }
            i = j;
        } else if ((t.text == "for" || t.text == "while") && i + 1 < fn.close &&
                   toks[i + 1].text == "(") {
            // Container growth inside the loop body on a receiver that is
            // never reserved in this function.
            const std::size_t hclose = match_bracket(toks, i + 1, "(", ")");
            if (hclose >= fn.close) continue;
            std::size_t body_b = hclose + 1, body_e;
            if (body_b < fn.close && toks[body_b].text == "{") {
                body_e = match_bracket(toks, body_b, "{", "}");
            } else {
                body_e = body_b;
                int depth = 0;
                while (body_e < fn.close) {
                    const std::string& u = toks[body_e].text;
                    if (u == "(" || u == "[" || u == "{") ++depth;
                    else if (u == ")" || u == "]" || u == "}") --depth;
                    else if (u == ";" && depth == 0) break;
                    ++body_e;
                }
            }
            if (body_e >= fn.close) continue;
            for (std::size_t k = body_b; k < body_e; ++k) {
                if (!toks[k].is_ident) continue;
                const std::string& m = toks[k].text;
                if (m != "push_back" && m != "emplace_back" && m != "insert")
                    continue;
                if (k < body_b + 2 || toks[k - 1].text != "." ||
                    !toks[k - 2].is_ident)
                    continue;
                const std::string& recv = toks[k - 2].text;
                if (has_reserve(toks, fn, recv)) continue;
                out.push_back({Rule::kHotAlloc, path, toks[k].line,
                               "'" + recv + "." + m + "' inside a loop" + where +
                                   " without reserve(): amortized growth still "
                                   "reallocates on the per-event path"});
            }
        }
    }
}

}  // namespace

void check_hotpath(const std::string& path, const std::vector<Token>& toks,
                   const std::vector<Annotation>& anns,
                   std::vector<Finding>& out) {
    std::vector<const Annotation*> hot;
    for (const Annotation& a : anns)
        if (a.role == Role::kHot) hot.push_back(&a);
    if (hot.empty()) return;

    const std::vector<FunctionBody> fns = find_functions(toks);
    for (const Annotation* a : hot) {
        const FunctionBody* best = nullptr;
        for (const FunctionBody& fn : fns) {
            if (fn.name != a->symbol || fn.line < a->line) continue;
            if (!best || fn.line < best->line) best = &fn;
        }
        if (best) check_hot_function(path, toks, *best, out);
    }
}

}  // namespace geoanon::lint::internal
