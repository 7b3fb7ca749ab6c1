"""comdb: natural-language database schema representations.

Converts relational schemas plus context-of annotations into the two-part
NL form (base schema + contextual schema), builds the prompts of both tasks
in both arms, calls a chat-completion client and judges the answers. Import
names from the modules (comdb.schema, comdb.llm, ...): the package exports
only __version__, and `import comdb` loads no submodule.
"""

__version__ = "0.1.0"
