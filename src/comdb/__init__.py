"""comdb: natural-language database schema representations.

Converts relational schemas plus context-of annotations into the two-part
NL form (base schema + contextual schema), builds the semantic-integration
and tables-joining prompts in both arms, talks to a pluggable
chat-completion client, and validates results against gold mappings and
live SQL execution.
"""

from .errors import ComdbError
from .evaluate import (
    MappingScore,
    SqlValidationReport,
    execute_sql,
    render_report,
    render_summary,
    run_experiment,
    score_mapping,
)
from .ingest import (
    build_database,
    introspect_database,
    parse_annotations,
    parse_ddl,
    parse_fixture,
    render_annotations,
    render_fixture,
)
from .llm import (
    ARMS,
    DEFAULT_JOIN_GOAL,
    TASK_INTEGRATION,
    TASK_JOINING,
    WITH_CONTEXT,
    WITHOUT_CONTEXT,
    ClientConfig,
    HttpChatClient,
    MockChatClient,
    PromptBundle,
    build_integration_prompt,
    build_join_prompt,
    build_prompt,
    extract_sql,
    parse_mapping_response,
)
from .mapping import HeaderMapping, MappingEntry, parse_map_text
from .nl import (
    StyleFlags,
    emit_base_schema,
    emit_contextual_schema,
    parse_base_schema,
    parse_contextual_schema,
)
from .schema import (
    ContextRelation,
    DatabaseSchema,
    DirectedContextPair,
    HeaderContextGroup,
    OntologyAnnotations,
    TableSchema,
    ValidatedAnnotations,
    ValidatedSchema,
    expand_context_relation,
    validate_annotations,
    validate_schema,
)

__version__ = "0.1.0"
